package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// clockTicksPerSecond is USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux port Go supports; reading it
// properly needs sysconf(3), which needs cgo.
const clockTicksPerSecond = 100

// moduleRoot walks up from the working directory to the directory holding
// go.mod: `go run ./bench` starts at the root, `go test ./bench/...` in
// bench/.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod above the working directory; run from inside the gqldb module")
		}
		dir = parent
	}
}

// binaries are the paths of the two server programs the benchmark drives.
type binaries struct {
	server, shard string
}

// buildBinaries compiles cmd/gqlserver and cmd/gqlshard from the module at
// root into outDir. The benchmark measures these programs, never code
// linked into its own process.
func buildBinaries(root, outDir string) (binaries, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return binaries{}, err
	}
	b := binaries{
		server: filepath.Join(outDir, "gqlserver"),
		shard:  filepath.Join(outDir, "gqlshard"),
	}
	for _, t := range []struct{ out, pkg string }{
		{b.server, "./cmd/gqlserver"},
		{b.shard, "./cmd/gqlshard"},
	} {
		cmd := exec.Command("go", "build", "-o", t.out, t.pkg)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return binaries{}, fmt.Errorf("bench: building %s: %w\n%s", t.pkg, err, out)
		}
	}
	return b, nil
}

// proc is one server process started by the benchmark, in its own process
// group so that one signal reaches it and anything it spawned.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	// addr is the host:port the process announced on its log.
	addr string
}

// live tracks every running proc so that a fatal error or a signal can
// stop them all; see killAll.
var live struct {
	mu    sync.Mutex
	procs map[*proc]struct{}
}

var addrRE = regexp.MustCompile(`listening on (127\.0\.0\.1:\d+)`)

// startProc launches bin with its log (stderr and stdout) in dir/name.log
// and waits until the process announces its listen address there. The log
// goes to a file, not a pipe: the servers log every request, and draining
// a pipe would spend the load generator's CPU inside the measured window.
func startProc(dir, name, bin string, args ...string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, logPath: logPath}
	live.mu.Lock()
	if live.procs == nil {
		live.procs = make(map[*proc]struct{})
	}
	live.procs[p] = struct{}{}
	live.mu.Unlock()

	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		b, err := os.ReadFile(logPath)
		if err != nil {
			p.kill()
			return nil, err
		}
		if m := addrRE.FindSubmatch(b); m != nil {
			p.addr = string(m[1])
			return p, nil
		}
		// Signal 0 probes for existence: a process that died before
		// listening will never announce an address.
		if err := cmd.Process.Signal(syscall.Signal(0)); err != nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	tail := p.logTail()
	p.kill()
	return nil, fmt.Errorf("bench: %s did not announce a listen address; log:\n%s", name, tail)
}

// logTail returns the last few KiB of the process log for error reports.
func (p *proc) logTail() string {
	b, err := os.ReadFile(p.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 4096 {
		b = b[len(b)-4096:]
	}
	return string(b)
}

// kill sends SIGKILL to the process group and waits for the process to
// end. SIGKILL, not a drain: the benchmark's crash check needs it, and no
// other workload has state worth draining. Safe to call twice.
func (p *proc) kill() {
	live.mu.Lock()
	_, running := live.procs[p]
	delete(live.procs, p)
	live.mu.Unlock()
	if !running {
		return
	}
	// A negative pid addresses the group; ESRCH means it is already gone.
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	_ = p.cmd.Wait() // the exit status of a killed process is "killed"
}

// killAll stops every process still registered. It is the last line of
// the failure paths: normal runs stop their own processes.
func killAll() {
	live.mu.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.mu.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// parseStatCPU extracts utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) may itself contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (uint64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("bench: /proc stat: no command field")
	}
	f := bytes.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: /proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err1 := strconv.ParseUint(string(f[11]), 10, 64)
	st, err2 := strconv.ParseUint(string(f[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: /proc stat: utime %q stime %q are not numbers", f[11], f[12])
	}
	return ut + st, nil
}

// parseVmHWM extracts the peak resident set size, in KiB, from the
// contents of /proc/<pid>/status.
func parseVmHWM(status []byte) (uint64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		f := bytes.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("bench: /proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseUint(string(f[0]), 10, 64)
	}
	return 0, errors.New("bench: /proc status: no VmHWM line")
}

// cpuTicks sums utime+stime over the processes.
func cpuTicks(ps []*proc) (uint64, error) {
	var total uint64
	for _, p := range ps {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		t, err := parseStatCPU(b)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// peakRSSKiB sums VmHWM over the processes.
func peakRSSKiB(ps []*proc) (uint64, error) {
	var total uint64
	for _, p := range ps {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		kb, err := parseVmHWM(b)
		if err != nil {
			return 0, err
		}
		total += kb
	}
	return total, nil
}
