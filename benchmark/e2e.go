package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"github.com/hifind/hifind/internal/core"
	"github.com/hifind/hifind/internal/evalx"
	"github.com/hifind/hifind/internal/netmodel"
)

// warmupIntervals are left out of the detection-time pool. The EWMA has
// no forecast in interval 0, and for the next few intervals detection runs
// against a forecast built from one to three samples: every sustained key
// is a large error, and on attack-storm-pcap those intervals cost twenty
// times a settled one. Three such intervals are 4 % of a 73-round run,
// so leaving them in puts detect_ms_p95 on the edge of a cliff. Their
// cost still counts in pkts_per_s and shows in hifind.end_interval_ms_max.
const warmupIntervals = 5

// buildProgram compiles cmd/hifind from the checkout at root into dir.
func buildProgram(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "hifind")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/hifind")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/hifind: %v\n%s", err, out)
	}
	return bin, nil
}

// childArgs is the whole command line of a measured run: the capture,
// the edge, NDJSON output, and nothing that changes a default.
func childArgs(c capture) []string {
	return []string{c.inputFlag(), c.Path, "-edge", edgeCIDR, "-json"}
}

// intervalEvent is one NDJSON "interval" summary.
type intervalEvent struct {
	Interval         int     `json:"interval"`
	DetectionSeconds float64 `json:"detection_seconds"`
}

// output is what one run of the program printed, parsed.
type output struct {
	Intervals []intervalEvent
	Alerts    []core.Alert
	// AlertFields holds each alert event's "fields" object exactly as
	// printed (the event time differs between runs; the fields may not).
	AlertFields [][]byte
	Startup     bool
}

type alertFields struct {
	Type     string `json:"type"`
	Interval int    `json:"interval"`
	Attacker string `json:"attacker"`
	Victim   string `json:"victim"`
	Port     uint16 `json:"port"`
	Spoofed  bool   `json:"spoofed"`
}

var alertTypes = map[string]core.AlertType{
	core.AlertSYNFlood.String():    core.AlertSYNFlood,
	core.AlertHScan.String():       core.AlertHScan,
	core.AlertVScan.String():       core.AlertVScan,
	core.AlertBlockScan.String():   core.AlertBlockScan,
	core.AlertBurstFlood.String():  core.AlertBurstFlood,
	core.AlertPersistScan.String(): core.AlertPersistScan,
	core.AlertReflection.String():  core.AlertReflection,
}

// parseOutput reads the program's stdout: NDJSON events between a
// human-readable banner and summary line, which are skipped.
func parseOutput(stdout []byte) (output, error) {
	var out output
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var ev struct {
			Kind   string          `json:"kind"`
			Fields json.RawMessage `json:"fields"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return output{}, fmt.Errorf("bad NDJSON line %q: %w", line, err)
		}
		switch ev.Kind {
		case "startup":
			out.Startup = true
		case "interval":
			var iv intervalEvent
			if err := json.Unmarshal(ev.Fields, &iv); err != nil {
				return output{}, fmt.Errorf("bad interval event %q: %w", line, err)
			}
			out.Intervals = append(out.Intervals, iv)
		case "alert":
			var f alertFields
			if err := json.Unmarshal(ev.Fields, &f); err != nil {
				return output{}, fmt.Errorf("bad alert event %q: %w", line, err)
			}
			typ, ok := alertTypes[f.Type]
			if !ok {
				return output{}, fmt.Errorf("unknown alert type %q", f.Type)
			}
			a := core.Alert{Type: typ, Interval: f.Interval, Port: f.Port, Spoofed: f.Spoofed}
			var err error
			if f.Attacker != "" {
				if a.SIP, err = netmodel.ParseIPv4(f.Attacker); err != nil {
					return output{}, err
				}
			}
			if f.Victim != "" {
				if a.DIP, err = netmodel.ParseIPv4(f.Victim); err != nil {
					return output{}, err
				}
			}
			out.Alerts = append(out.Alerts, a)
			out.AlertFields = append(out.AlertFields, append([]byte(nil), ev.Fields...))
		}
	}
	return out, sc.Err()
}

// detectMillis pools the program's own per-interval detection clock,
// past the warm-up intervals.
func (o output) detectMillis() []float64 {
	var ms []float64
	for _, iv := range o.Intervals {
		if iv.Interval >= warmupIntervals {
			ms = append(ms, iv.DetectionSeconds*1e3)
		}
	}
	return ms
}

// sameAlerts reports whether two runs printed identical alert fields.
func sameAlerts(a, b output) bool {
	if len(a.AlertFields) != len(b.AlertFields) {
		return false
	}
	for i := range a.AlertFields {
		if !bytes.Equal(a.AlertFields[i], b.AlertFields[i]) {
			return false
		}
	}
	return true
}

// accuracy scores one run's final alerts against the generator's truth.
type accuracy struct {
	Injected  int `json:"injected_attacks"` // true attacks in the trace
	Missed    int `json:"missed_attacks"`   // with no matching final alert
	Alerts    int `json:"final_alerts"`     // deduplicated by culprit key
	Unmatched int `json:"unmatched_alerts"` // matching no true attack
	Expected  int `json:"expected_intervals"`
	Missing   int `json:"missing_intervals"`
}

func (a accuracy) recall() float64 {
	if a.Injected == 0 {
		return 1
	}
	return float64(a.Injected-a.Missed) / float64(a.Injected)
}

func (a accuracy) precision() float64 {
	if a.Alerts == 0 {
		return 1
	}
	return float64(a.Alerts-a.Unmatched) / float64(a.Alerts)
}

// failShare is the share of everything the run should have got right
// that it got wrong: attacks missed, alerts raised for nothing, and
// intervals that never reported.
func (a accuracy) failShare() float64 {
	return float64(a.Missed+a.Unmatched+a.Missing) / float64(a.Injected+a.Alerts+a.Expected)
}

func score(o output, c capture) accuracy {
	acc := accuracy{Expected: c.ExpectedIntervals}
	for _, atk := range c.Attacks {
		if atk.Type.IsTrueAttack() {
			acc.Injected++
		}
	}
	dedup := make(map[core.AlertKey]core.Alert)
	for _, a := range o.Alerts {
		if _, ok := dedup[a.Key()]; !ok {
			dedup[a.Key()] = a
		}
	}
	res := evalx.NewMatcher(c.Attacks).Evaluate(dedup)
	acc.Alerts = len(dedup)
	acc.Unmatched = res.FalsePositives
	acc.Missed = len(res.MissedAttacks)
	seen := make(map[int]bool)
	for _, iv := range o.Intervals {
		seen[iv.Interval] = true
	}
	for i := 0; i < c.ExpectedIntervals; i++ {
		if !seen[i] {
			acc.Missing++
		}
	}
	return acc
}

// peakRSS reads a running process's peak resident set (VmHWM) in KiB.
// rusage's ru_maxrss cannot be used for this: across exec the kernel
// folds the forking parent's own peak into it, so a child started from a
// harness that has grown past it reports the harness's memory. runChild
// samples VmHWM at every interval event the child prints; the last one
// follows the last interval's detection, after which the program only
// exits.
func peakRSS(pid int) (kib int64, ok bool) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, false
	}
	_, rest, found := bytes.Cut(data, []byte("VmHWM:"))
	if !found {
		return 0, false
	}
	field, _, _ := bytes.Cut(bytes.TrimSpace(rest), []byte(" "))
	kib, err = strconv.ParseInt(string(field), 10, 64)
	return kib, err == nil
}

// childRun is one execution of the built binary.
type childRun struct {
	Wall    time.Duration // exec to exit
	CPU     time.Duration // rusage user+sys
	RSSKiB  int64         // the child's peak resident set (see peakRSS)
	Startup time.Duration // exec to the "startup" NDJSON line
	Stdout  []byte
	Out     output
}

// runChild executes the program on the capture with default flags. The
// harness does nothing but drain the pipe while the child runs.
func runChild(ctx context.Context, bin string, c capture) (childRun, error) {
	cmd := exec.CommandContext(ctx, bin, childArgs(c)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	var run childRun
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	var stdout bytes.Buffer
	rd := bufio.NewReaderSize(pipe, 1<<16)
	marker, interval := []byte(`"kind":"startup"`), []byte(`"kind":"interval"`)
	for {
		line, err := rd.ReadBytes('\n')
		if run.Startup == 0 && bytes.Contains(line, marker) {
			run.Startup = time.Since(start)
		}
		stdout.Write(line)
		if bytes.Contains(line, interval) {
			if kib, ok := peakRSS(cmd.Process.Pid); ok {
				run.RSSKiB = kib
			}
		}
		if err != nil {
			break
		}
	}
	err = cmd.Wait()
	run.Wall = time.Since(start)
	if err != nil {
		return childRun{}, fmt.Errorf("%s %v: %v\n%s", bin, childArgs(c), err, stderr.Bytes())
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return childRun{}, fmt.Errorf("no rusage for the child on this platform")
	}
	run.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	if run.RSSKiB == 0 {
		run.RSSKiB = int64(ru.Maxrss)
	}
	run.Stdout = stdout.Bytes()
	if run.Out, err = parseOutput(run.Stdout); err != nil {
		return childRun{}, err
	}
	if !run.Out.Startup {
		return childRun{}, fmt.Errorf("%s printed no startup event", bin)
	}
	return run, nil
}
