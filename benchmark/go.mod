module apollo/benchmark

go 1.24

require apollo v0.0.0

replace apollo => ../
