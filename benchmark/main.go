// Command benchmark is the repository's one end-to-end benchmark: it
// builds cmd/hifind, generates each workload's capture from a seed, runs
// the built binary with default flags, checks its alerts against the
// generator's truth, and in a separate traced in-process run times the
// calls into each layer. See README.md.
//
//	go run ./benchmark                          # every workload, both runs, .bench_build/result.json
//	go run ./benchmark --workload edge-zipf-pcap --seed 7 --seconds 10 --trace 0
//	go run ./benchmark -compare a.json b.json
//
// benchmark/run.sh is the same with the Go build cache kept inside the
// checkout; BENCHMARK.json names it as the command.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// findRoot locates the checkout: the benchmark is started from its root
// (go run ./benchmark, run.sh) or from its own directory (go run ., go test).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "hifind", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("cmd/hifind not found: run from the root of a checkout")
}

// timedReps is the fewest timed repetitions of the binary in a run: with
// the 68 intervals a capture holds past warm-up, three pool the 200
// samples detect_ms_p95 needs.
const timedReps = 3

func run() error {
	var (
		name    = flag.String("workload", "", "run this one workload and print the driver's JSON line last (default: all, with a result file)")
		seed    = flag.Int64("seed", 101, "workload generator seed")
		seconds = flag.Float64("seconds", 0, "how long each measured phase runs at least (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "with -workload: 0 measures the binary end to end, 1 runs the traced per-layer ledger")
		compare = flag.Bool("compare", false, "compare two result files: -compare baseline.json candidate.json")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return err
	}
	con, err := loadContract(root)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		base, err := readResult(flag.Arg(0))
		if err != nil {
			return err
		}
		cand, err := readResult(flag.Arg(1))
		if err != nil {
			return err
		}
		worse, err := compareResults(os.Stdout, con, base, cand)
		if err != nil {
			return err
		}
		if worse {
			return fmt.Errorf("at least one metric is worse than its bound allows")
		}
		return nil
	}

	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = float64(con.RunSeconds)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rc := runConfig{contract: con, root: root, buildDir: buildDir, seed: *seed, seconds: *seconds,
		minReps: timedReps, log: os.Stdout}
	env := readEnvironment(root)
	fmt.Printf("hifind benchmark: seed %d, %.0f s per phase, %d CPUs (GOMAXPROCS %d), %s, %s, kernel %s, commit %s\n",
		rc.seed, rc.seconds, env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.CPUModel, env.Kernel, env.GitCommit)

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		res, err := runWorkload(ctx, rc, w, *trace == 0, *trace != 0)
		if err != nil {
			return err
		}
		printResult(os.Stdout, con, res)
		return printDriverLine(res, *trace != 0)
	}

	file := &resultFile{Environment: env, Seed: rc.seed, Seconds: rc.seconds, MinReps: rc.minReps}
	allCorrect := true
	for _, w := range workloads {
		res, err := runWorkload(ctx, rc, w, true, true)
		if err != nil {
			return err
		}
		printResult(os.Stdout, con, res)
		file.Workloads = append(file.Workloads, res)
		allCorrect = allCorrect && res.Correct
	}
	path := filepath.Join(buildDir, "result.json")
	if err := file.write(path); err != nil {
		return err
	}
	fmt.Printf("\nresult file: %s\nspan trees:  %s\n", path, filepath.Join(buildDir, "trace-<workload>.json"))
	if !allCorrect {
		return fmt.Errorf("correctness gate failed; see PROBLEM lines above")
	}
	return nil
}

// printDriverLine prints the one JSON object the driver reads from the
// last line of stdout.
func printDriverLine(res *workloadResult, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values := res.EndToEnd
	if traced {
		values = res.PerLayer
	}
	metrics := make(map[string]value, len(values))
	for name, m := range values {
		metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}
