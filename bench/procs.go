package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// serverBinaries are the programs under test, built from the checkout
// the driver runs in.
var serverBinaries = []string{"soibuild", "soiserve", "soishard"}

// env is where one invocation finds and leaves files: the checkout it
// builds from, the binaries it built, scratch space for artifacts
// (removed when the run ends) and the children's stderr logs (kept).
type env struct {
	repo, bin, scratch, logs string
}

// newEnv lays the directories out under work and builds the server
// binaries into it. The build is outside every metric.
func newEnv(ctx context.Context, repo, work string) (*env, error) {
	repo, err := filepath.Abs(repo)
	if err != nil {
		return nil, err
	}
	work, err = filepath.Abs(work)
	if err != nil {
		return nil, err
	}
	e := &env{repo: repo, bin: filepath.Join(work, "bin"), logs: filepath.Join(work, "logs")}
	for _, dir := range []string{e.bin, e.logs} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	if e.scratch, err = os.MkdirTemp(work, "scratch-"); err != nil {
		return nil, err
	}
	args := []string{"build", "-o", e.bin + string(filepath.Separator)}
	for _, b := range serverBinaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.scratch) }

func (e *env) binary(name string) string { return filepath.Join(e.bin, name) }

// runTool runs a build-time program (soibuild) to completion.
func (e *env) runTool(ctx context.Context, name string, args ...string) error {
	cmd := exec.CommandContext(ctx, e.binary(name), args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return nil
}

// child is one server process under test.
type child struct {
	name string
	addr string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed when the process has been reaped
}

// freeAddr reserves a loopback port by binding port 0 and releasing it
// for the child to bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts a server on a free loopback port (passed as -addr) with
// its stderr kept in the log directory.
func (e *env) spawn(name, binary string, args ...string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(e.logs, name+".stderr"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.binary(binary), append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	c := &child{name: name, addr: addr, cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		// The exit status of a killed child carries no information.
		_ = cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// stop kills the child and waits until it has been reaped.
func (c *child) stop() {
	// Kill fails only when the process is already gone.
	_ = c.cmd.Process.Kill()
	<-c.done
	c.log.Close()
}

// waitReady polls /readyz until the child answers 200: a request sent
// while a snapshot is still loading would be refused and count as a
// failure of the workload.
func (c *child) waitReady(ctx context.Context, client *http.Client) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", c.name, ctx.Err())
		case <-c.done:
			return fmt.Errorf("%s exited before becoming ready (see its .stderr log)", c.name)
		case <-tick.C:
		}
		resp, err := client.Get("http://" + c.addr + "/readyz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
	}
}

// clockTicksPerSecond is USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat; Linux fixes it at 100 on every architecture.
const clockTicksPerSecond = 100

// cpuSeconds returns the user+system CPU time the process has used.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

// parseStatCPU reads utime and stime (fields 14 and 15) of a
// /proc/<pid>/stat line. The command name (field 2) may contain spaces,
// so fields are counted from the closing parenthesis.
func parseStatCPU(data []byte) (float64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line")
	}
	fields := strings.Fields(string(data[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("malformed stat line: %d fields after the command", len(fields))
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed stat CPU times %q %q", fields[11], fields[12])
	}
	return (utime + stime) / clockTicksPerSecond, nil
}

// peakRSSMB returns VmHWM, the process's resident-set high-water mark.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusHWM(data)
}

func parseStatusHWM(data []byte) (float64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in status")
}
