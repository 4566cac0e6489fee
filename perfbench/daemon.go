package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one child ontoaccessd process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	log    *os.File
}

// buildDaemon compiles ./cmd/ontoaccessd of the checkout at root.
func buildDaemon(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/ontoaccessd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building ontoaccessd: %v\n%s", err, msg)
	}
	return nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs the daemon with -data-dir and a loopback -addr,
// every other flag at its default, and waits for /healthz to answer.
func startDaemon(bin, dataDir, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even if the benchmark is
	// killed before it can stop the daemon itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting ontoaccessd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logf}
	live.Lock()
	live.m[d] = true
	live.Unlock()
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(60 * time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// waitReady polls /healthz until it answers 200.
func (d *daemon) waitReady(limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("ontoaccessd exited during start-up (see %s)", d.log.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ontoaccessd not ready after %v", limit)
		}
	}
}

// kill sends SIGKILL and waits for the process to end.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.log.Close()
	live.Lock()
	delete(live.m, d)
	live.Unlock()
}

// live holds the running daemons, so an interrupted run can stop them
// before it removes their data directories.
var live = struct {
	sync.Mutex
	m map[*daemon]bool
}{m: map[*daemon]bool{}}

// killAll stops every running daemon.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.m))
	for d := range live.m {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// health is /healthz parsed into named numbers.
type health map[string]float64

var healthNum = regexp.MustCompile(`(\d+(?:\.\d+)?) ([a-z][a-z-]*(?: [a-z]+)?)`)

// healthz fetches and parses /healthz. Each "label: N word, M word"
// line becomes keys "label.word"; table lines become "rows.<table>".
func (d *daemon) healthz() (health, error) {
	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/healthz status %d", resp.StatusCode)
	}
	return parseHealth(body), nil
}

func parseHealth(body []byte) health {
	h := health{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		label, rest, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			continue
		}
		if t, found := strings.CutPrefix(label, "table "); found {
			var n float64
			fmt.Sscan(rest, &n)
			h["rows."+t] = n
			continue
		}
		if v, err := strconv.ParseFloat(rest, 64); err == nil {
			h[label] = v
			continue
		}
		// The first number of a line may have no word after it, as in
		// "write batches: 5 (12 ops, ...)" or "checkpoints: 2 (last ...".
		if f := strings.Fields(rest); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				h[label] = v
			}
		}
		for _, m := range healthNum.FindAllStringSubmatch(rest, -1) {
			v, _ := strconv.ParseFloat(m[1], 64)
			h[label+"."+m[2]] = v
		}
	}
	return h
}

func (h health) delta(before health, key string) float64 { return h[key] - before[key] }

// procCPU returns the process's user+system CPU time from
// /proc/<pid>/stat (clock ticks of 10 ms, the Linux USER_HZ).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	// Fields after the command name start at field 3 (state), so
	// utime (field 14) and stime (field 15) are f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM returns the process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies the regular files of a flat or nested directory.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
