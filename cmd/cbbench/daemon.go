package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"correctbench"
)

// target is one running service under test: its base URL, the process
// whose peak RSS is reported, and an HTTP client sized to the load.
type target struct {
	base string
	pid  int
	http *http.Client
	stop func() error
}

// launcher starts a fresh service over the result store in storeDir
// and returns once GET /v1/problems answers.
type launcher func(storeDir string) (*target, error)

// newTarget wraps a started service; stop runs at most once and also
// drops the client's idle connections.
func newTarget(base string, pid, conns int, stop func() error) *target {
	t := &target{
		base: base,
		pid:  pid,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	var once sync.Once
	var err error
	t.stop = func() error {
		once.Do(func() {
			t.http.CloseIdleConnections()
			err = stop()
		})
		return err
	}
	return t
}

// daemonLauncher starts the correctbenchd binary with the deployment
// flags of a closed-loop benchmark: a free loopback port, the given
// store directory, and admission rate and per-client job limits off
// (their defaults would answer 429 to a closed loop). The daemon's
// output goes to daemon.log in work.
func daemonLauncher(bin, work string, conns int) launcher {
	return func(storeDir string) (*target, error) {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		logPath := filepath.Join(work, "daemon.log")
		logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, "-addr", addr, "-store-dir", storeDir, "-rate", "0", "-max-jobs-per-client", "0")
		cmd.Stdout, cmd.Stderr = logf, logf
		cmd.Env = append(os.Environ(), "TMPDIR="+work)
		// The daemon must not outlive the benchmark, however it ends.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		exited := make(chan struct{})
		var waitErr error
		go func() {
			waitErr = cmd.Wait()
			logf.Close()
			close(exited)
		}()
		t := newTarget("http://"+addr, cmd.Process.Pid, conns, func() error {
			_ = cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-exited:
				return waitErr
			case <-time.After(20 * time.Second):
				_ = cmd.Process.Kill()
				<-exited
				return fmt.Errorf("correctbenchd did not drain within 20s of SIGTERM")
			}
		})
		if err := waitReady(t, exited, 60*time.Second); err != nil {
			_ = t.stop()
			return nil, fmt.Errorf("%w (log: %s)", err, logPath)
		}
		return t, nil
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls GET /v1/problems until it answers 200, the daemon
// exits, or the timeout passes.
func waitReady(t *target, exited <-chan struct{}, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := t.http.Get(t.base + "/v1/problems")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return fmt.Errorf("correctbenchd exited before answering /v1/problems")
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("correctbenchd not ready after %s", timeout)
		}
	}
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func getJSON(t *target, path string, v any) error {
	resp, err := t.http.Get(t.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// postGrade sends one /v1/grade request and reads the response to its
// last byte.
func postGrade(t *target, body []byte) (string, error) {
	resp, err := t.http.Post(t.base+"/v1/grade", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		Grade string `json:"grade"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&out)
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("POST /v1/grade: %s", resp.Status)
	}
	if decErr != nil {
		return "", fmt.Errorf("POST /v1/grade: %w", decErr)
	}
	return out.Grade, nil
}

// stream is one streamed POST /v1/experiments as the client saw it.
type stream struct {
	jobID  string
	ncells int                         // cell lines received
	cells  []correctbench.CellFinished // decoded cells, when no expected lines were given
	at     []time.Duration             // arrival of each cell line, from the request start
	bad    []string                    // cell lines that differ from the expected ones
	tables map[string]string
	done   bool   // job_done arrived
	err    string // job_done's error, "" when ok
	bytes  int
	wall   time.Duration // request start to the last response byte
}

// postStream submits spec with "stream": true and reads the NDJSON
// event stream to its end. With expect, the cell lines must equal
// those bytes in order and are not decoded: a replay streams tens of
// thousands of cells per second, and decoding them would take the
// load generator a whole CPU.
func postStream(t *target, spec correctbench.ExperimentSpec, expect [][]byte) (*stream, error) {
	body, err := json.Marshal(struct {
		correctbench.ExperimentSpec
		Stream bool `json:"stream"`
	}{spec, true})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := t.http.Post(t.base+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("POST /v1/experiments: %s", resp.Status)
	}
	s := &stream{jobID: resp.Header.Get("X-Correctbench-Job"), tables: map[string]string{}}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, readErr := br.ReadBytes('\n')
		s.bytes += len(line)
		if expect != nil && s.ncells < len(expect) && bytes.Equal(line, expect[s.ncells]) {
			s.ncells++
			continue
		}
		if len(bytes.TrimSpace(line)) > 0 {
			ev, err := correctbench.UnmarshalEvent(bytes.TrimSpace(line))
			if err != nil {
				return nil, err
			}
			switch e := ev.(type) {
			case correctbench.CellFinished:
				s.ncells++
				if expect != nil {
					s.bad = append(s.bad, fmt.Sprintf("job %s: cell line %d differs from the expected replay: %s", s.jobID, s.ncells-1, bytes.TrimSpace(line)))
					break
				}
				s.cells = append(s.cells, e)
				s.at = append(s.at, time.Since(start))
			case correctbench.TableReady:
				s.tables[e.Name] = e.Text
			case correctbench.JobDone:
				s.done = true
				if e.Err != nil {
					s.err = e.Err.Error()
				}
			}
		}
		if readErr == io.EOF {
			break
		}
		if readErr != nil {
			return nil, readErr
		}
	}
	s.wall = time.Since(start)
	return s, nil
}
