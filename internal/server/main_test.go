package server

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package if any server goroutine — a worker, a
// mirror, the steal loop — outlives the tests: every test shuts its
// servers down, and Shutdown must wait for all of them.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(5 * time.Second)
		left := serverGoroutines()
		for len(left) > 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			left = serverGoroutines()
		}
		if len(left) > 0 {
			fmt.Fprintf(os.Stderr, "%d server goroutines outlived the tests:\n%s\n",
				len(left), strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// serverGoroutines returns the stacks of live goroutines running
// server code (the caller's own stack excluded).
func serverGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i > 0 && strings.Contains(g, "chameleon/internal/server.(*") {
			out = append(out, g)
		}
	}
	return out
}
