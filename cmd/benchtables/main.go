// Command benchtables regenerates every table and figure of the paper's
// evaluation section from synthetic traces and prints them in the paper's
// layout (see DESIGN.md §5 for the experiment index and EXPERIMENTS.md for
// recorded paper-vs-measured results).
//
//	benchtables            # all experiments at the quick scale
//	benchtables -table 4   # just Table 4
//	benchtables -full      # larger traces (slower, closer to paper scale)
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/hifind/hifind/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run() error {
	tables := []string{"1", "4", "5", "6", "7", "9", "f4", "mr", "val", "ma", "perf",
		"ttd", "ablation", "scenarios", "all"}
	var (
		table = flag.String("table", "all",
			"which artifact to regenerate: "+strings.Join(tables, ", "))
		full = flag.Bool("full", false, "run at the larger scale")
	)
	flag.Parse()
	if !slices.Contains(tables, *table) {
		return fmt.Errorf("-table must be one of %s, got %q", strings.Join(tables, ", "), *table)
	}
	scale := experiments.QuickScale()
	if *full {
		scale = experiments.FullScale()
	}

	want := func(name string) bool { return *table == "all" || *table == name }
	section := func(title string) { fmt.Printf("\n===== %s =====\n", title) }

	if want("1") {
		section("Table 1 — functionality comparison")
		rows, err := experiments.Table1()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable1(rows))
	}
	if want("f4") {
		section("Figure 4 — unique-port bi-modality")
		h, err := experiments.Figure4(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatFigure4(h))
	}
	if want("4") {
		section("Table 4 — detection results under three phases")
		d, err := experiments.Table4(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable4(d))
	}
	if want("5") {
		section("Table 5 — Hscan detection: HiFIND vs TRW")
		rows, err := experiments.Table5(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable5(rows))
	}
	if want("6") {
		section("Table 6 — SYN flooding detection: HiFIND vs CPM")
		rows, err := experiments.Table6(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable6(rows))
	}
	if want("7") {
		section("Tables 7–8 — top/bottom Hscans (NU)")
		top, bottom, err := experiments.Table78(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable78(top, bottom))
	}
	if want("mr") {
		section("§5.3.2 — aggregated detection over three routers")
		res, err := experiments.MultiRouter(scale)
		if err != nil {
			return err
		}
		fmt.Printf("single-router final alerts:     %d\n", res.SingleAlerts)
		fmt.Printf("aggregated (3-way split):       %d (missing: %d)\n",
			res.AggregatedAlerts, res.MissingFromAgg)
		fmt.Printf("TRW single vs per-router union: %d vs %d\n", res.TRWSingle, res.TRWSummed)
	}
	if want("val") {
		section("§5.4 — backscatter validation of detected floods (NU)")
		run, err := experiments.RunAll(experiments.NUTrace(scale))
		if err != nil {
			return err
		}
		v := experiments.Validation(run)
		fmt.Printf("final floods %d, matched by backscatter %d\n", v.FinalFloods, v.BackscatterMatched)
	}
	if want("9") {
		section("Table 9 — memory comparison (worst-case 40-byte spoofed stream)")
		d, err := experiments.Table9(200_000)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatTable9(d))
	}
	if want("ma") {
		section("§5.5.2 — memory accesses per packet")
		r, err := experiments.MemoryAccesses()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAccesses(r))
	}
	if want("perf") {
		section("§5.5.3 — recording throughput and detection latency")
		tp, err := experiments.Throughput(5_000_000)
		if err != nil {
			return err
		}
		fmt.Printf("reversible sketch: %.1fM insertions/sec ⇒ %.2f Gbps worst-case 40-byte packets\n",
			tp.InsertionsPerSec/1e6, tp.WorstCaseGbps)
		lat, err := experiments.DetectionTime(scale)
		if err != nil {
			return err
		}
		fmt.Printf("detection per interval: mean %.3fs, std %.3fs, max %.3fs over %d intervals\n",
			lat.MeanSec, lat.StdSec, lat.MaxSec, lat.Intervals)
		st, err := experiments.Stress60x(scale)
		if err != nil {
			return err
		}
		fmt.Printf("compressed stress (top-100 anomalies): mean %.3fs, max %.3fs\n",
			st.MeanSec, st.MaxSec)
	}
	if want("ttd") {
		section("Time to detection (extension; paper §1 motivates early-phase detection)")
		sum, _, err := experiments.TimeToDetection(scale)
		if err != nil {
			return err
		}
		fmt.Printf("attacks detected %d, missed %d; latency mean %.1f intervals, max %d\n",
			sum.Detected, sum.Missed, sum.MeanIntervals, sum.MaxIntervals)
	}
	if want("scenarios") {
		section("Evasion scenarios — per-detector precision/recall vs EWMA-only (DESIGN.md §17)")
		rows, err := experiments.ScenarioPR(scale.Intervals)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatScenarioPR(rows))
	}
	if want("ablation") {
		section("Ablations (DESIGN.md §7)")
		ew, err := experiments.AblationEWMA(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblation("EWMA smoothing constant:", ew))
		vf, err := experiments.AblationVerifier(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblation("verifier sketches:", vf))
		st, err := experiments.AblationStages(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblation("hash stages H:", st))
		ph, err := experiments.AblationPhi(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAblation("2D concentration φ:", ph))
		th, err := experiments.AblationThreshold(scale)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatThreshold(th))
		mc, err := experiments.AblationModularVsDirect(2_000_000)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatModularCost(mc))
	}
	return nil
}
