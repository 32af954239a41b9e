package seams_test

import (
	"testing"

	"apollo/internal/analysis/analysistest"
	"apollo/internal/analysis/seams"
)

func TestSeams(t *testing.T) {
	analysistest.Run(t, "../testdata/seams", seams.Analyzer)
}
