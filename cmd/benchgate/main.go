// Command benchgate enforces the performance contract of the flow cache:
// it compares a freshly measured comparison against the committed
// baseline JSON and exits non-zero on regression.
//
// The gate judges speedups — path-vs-path ratios measured back to back
// in one process — never absolute rates, so a slower CI machine cannot
// fail the gate and a faster one cannot mask a regression.
//
// Over the BENCH_cache.json shape written by `benchtables -table cache`:
//
//  1. PacketSpeedup ≥ -min-cache-speedup (default 1.5): the flow cache
//     must keep beating the cache-less recorder on Zipf-skewed packets.
//  2. FlowSpeedup ≥ 1.0: cached NetFlow replay must never be slower.
//  3. Each fresh speedup ≥ (1 - tolerance) × baseline speedup.
//  4. StateIdentical must be true: the measurement's differential anchor
//     (cached and cache-less recorders marshal to the same bytes) is a
//     correctness invariant, not a perf number.
//
// Usage:
//
//	benchgate -baseline BENCH_cache.json -fresh /tmp/fresh.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/hifind/hifind/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		baselinePath = flag.String("baseline", "BENCH_cache.json", "committed baseline JSON")
		freshPath    = flag.String("fresh", "", "freshly measured JSON (required)")
		tolerance    = flag.Float64("tolerance", 0.10, "allowed fractional speedup regression vs baseline")
		minCache     = flag.Float64("min-cache-speedup", 1.5, "absolute floor for the flow-cache packet speedup on Zipf traffic")
	)
	flag.Parse()
	if *freshPath == "" {
		return fmt.Errorf("-fresh is required (run `benchtables -table cache -benchout <file>` first)")
	}
	return gateCache(*baselinePath, *freshPath, *tolerance, *minCache)
}

// gateCache enforces the flow-cache contract over the BENCH_cache.json
// shape.
func gateCache(baselinePath, freshPath string, tolerance, minSpeedup float64) error {
	baseline, err := loadCache(baselinePath)
	if err != nil {
		return err
	}
	fresh, err := loadCache(freshPath)
	if err != nil {
		return err
	}
	fmt.Printf("cache gate: baseline %s, fresh %s (tolerance %.0f%%)\n",
		baselinePath, freshPath, 100*tolerance)
	fmt.Printf("  packet speedup: baseline %.2fx, fresh %.2fx (hit ratio %.1f%%)\n",
		baseline.PacketSpeedup, fresh.PacketSpeedup, 100*fresh.HitRatio)
	fmt.Printf("  flow speedup:   baseline %.2fx, fresh %.2fx\n", baseline.FlowSpeedup, fresh.FlowSpeedup)

	var failures []string
	if !fresh.StateIdentical {
		failures = append(failures,
			"cached recorder state diverged from the cache-less witness — the measurement is void")
	}
	if fresh.PacketSpeedup < minSpeedup {
		failures = append(failures, fmt.Sprintf(
			"cached packet speedup %.2fx below the %.1fx floor on Zipf traffic — the probe shortcut is broken",
			fresh.PacketSpeedup, minSpeedup))
	}
	if fresh.FlowSpeedup < 1.0 {
		failures = append(failures, fmt.Sprintf(
			"cached NetFlow replay is slower than the bare engine (%.2fx)", fresh.FlowSpeedup))
	}
	check := func(name string, base, got float64) {
		if floor := base * (1 - tolerance); got < floor {
			failures = append(failures, fmt.Sprintf(
				"%s speedup regressed: %.2fx vs baseline %.2fx (floor %.2fx)", name, got, base, floor))
		}
	}
	check("packet", baseline.PacketSpeedup, fresh.PacketSpeedup)
	check("flow", baseline.FlowSpeedup, fresh.FlowSpeedup)

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", f)
		}
		return fmt.Errorf("%d check(s) failed", len(failures))
	}
	fmt.Println("  PASS")
	return nil
}

func loadCache(path string) (experiments.CacheBench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return experiments.CacheBench{}, err
	}
	var b experiments.CacheBench
	if err := json.Unmarshal(data, &b); err != nil {
		return experiments.CacheBench{}, fmt.Errorf("%s: %w", path, err)
	}
	if b.UncachedPacketPPS <= 0 || b.UncachedFlowRPS <= 0 {
		return experiments.CacheBench{}, fmt.Errorf("%s: not a cache benchmark (zero uncached rates)", path)
	}
	return b, nil
}
