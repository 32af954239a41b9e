// Package clitest is the harness the cmd/* tests share to drive the real
// binaries: a test binary builds the commands it names once, runs one to its
// exit code, or starts one in the background — a server on a free loopback
// port once it answers /healthz — and stops it when the test ends. Test code
// cannot cross package boundaries, so the harness is an ordinary package,
// imported only by _test.go files.
package clitest

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// dir holds the binaries Main built.
var dir string

// Main builds apollo/cmd/<name> for every name into one temporary directory,
// hands the directory to setup when there is one, runs the tests and removes
// the directory.
func Main(m *testing.M, setup func(dir string) error, names ...string) {
	var err error
	dir, err = os.MkdirTemp("", "clitest")
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, name := range names {
		args = append(args, "apollo/cmd/"+name)
	}
	if err == nil {
		if out, berr := exec.Command("go", args...).CombinedOutput(); berr != nil {
			err = fmt.Errorf("go build: %v\n%s", berr, out)
		} else if setup != nil {
			err = setup(dir)
		}
	}
	code := 1
	if err == nil {
		code = m.Run()
	} else {
		fmt.Fprintln(os.Stderr, err)
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// Command is exec.Command on a binary Main built.
func Command(name string, args ...string) *exec.Cmd {
	return exec.Command(filepath.Join(dir, name), args...)
}

// Exit runs cmd to completion and returns its exit code.
func Exit(t testing.TB, cmd *exec.Cmd) int {
	t.Helper()
	return exitCode(t, cmd, cmd.Run())
}

// exitCode is the exit code of a command that ran; an error other than an
// exit status fails the test.
func exitCode(t testing.TB, cmd *exec.Cmd, err error) int {
	t.Helper()
	if _, ok := err.(*exec.ExitError); err != nil && !ok {
		t.Fatalf("%v: %v", cmd.Args, err)
	}
	return cmd.ProcessState.ExitCode()
}

// Run runs one built binary and returns its combined output and exit code.
func Run(t testing.TB, name string, args ...string) (string, int) {
	t.Helper()
	var out bytes.Buffer
	cmd := Command(name, args...)
	cmd.Stdout, cmd.Stderr = &out, &out
	code := Exit(t, cmd)
	return out.String(), code
}

// Proc is one built binary running in the background.
type Proc struct {
	Cmd *exec.Cmd
	out string // the file its stdout and stderr go to
}

// Start starts one built binary in the background. When the test ends the
// process is killed and waited for, unless the test already waited for it.
func Start(t testing.TB, name string, args ...string) *Proc {
	t.Helper()
	p := &Proc{Cmd: Command(name, args...), out: filepath.Join(t.TempDir(), "output")}
	f, err := os.Create(p.out)
	if err == nil {
		p.Cmd.Stdout, p.Cmd.Stderr = f, f
		err = p.Cmd.Start()
		f.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.Cmd.ProcessState == nil {
			p.Cmd.Process.Kill()
			p.Cmd.Wait()
		}
	})
	return p
}

// Output is what the process has written to stdout and stderr so far. It
// only annotates failures, so a read error leaves it empty.
func (p *Proc) Output() string {
	blob, _ := os.ReadFile(p.out)
	return string(blob)
}

// Wait waits for the process to exit and returns its exit code (-1 when a
// signal ended it).
func (p *Proc) Wait(t testing.TB) int {
	t.Helper()
	return exitCode(t, p.Cmd, p.Cmd.Wait())
}

// Stop sends SIGTERM and returns the exit code.
func (p *Proc) Stop(t testing.TB) int {
	t.Helper()
	if err := p.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	return p.Wait(t)
}

// Server is a built binary serving HTTP at URL.
type Server struct {
	*Proc
	URL string
}

// Serve starts a built server binary with -addr on a free loopback port
// ahead of args, and waits until it answers GET /healthz.
func Serve(t testing.TB, name string, args ...string) *Server {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	s := &Server{Proc: Start(t, name, append([]string{"-addr", addr}, args...)...), URL: "http://" + addr}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if r, err := http.Get(s.URL + "/healthz"); err == nil {
			r.Body.Close()
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never answered /healthz:\n%s", name, s.Output())
		}
	}
}
