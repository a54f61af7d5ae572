package experiments

import (
	"strings"
	"testing"
)

// The experiment tests assert the paper's *qualitative* claims — who
// detects what, which phases cut false positives, whose memory explodes —
// not absolute numbers (DESIGN.md §5).

func TestTable1FunctionalityMatrix(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("table 1 has %d rows", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Scenario] = r
	}
	// HiFIND detects all four scenarios (paper Table 1, row 1).
	for _, r := range rows {
		if !r.HiFIND {
			t.Errorf("HiFIND missed scenario %q", r.Scenario)
		}
	}
	// TRW detects scans, not floods.
	if byName["Spoofed DoS"].TRW || byName["Non-spoofed DoS"].TRW {
		t.Error("TRW should not attribute floods")
	}
	if !byName["Hscan"].TRW {
		t.Error("TRW missed the horizontal scan")
	}
	// Backscatter validates only the spoofed flood.
	if !byName["Spoofed DoS"].Backscatter {
		t.Error("backscatter missed the spoofed flood")
	}
	if byName["Hscan"].Backscatter || byName["Vscan"].Backscatter {
		t.Error("backscatter validated a scan")
	}
	// Superspreader flags only the wide scan.
	if !byName["Hscan"].Spreader {
		t.Error("superspreader missed the hscan")
	}
	if byName["Vscan"].Spreader || byName["Non-spoofed DoS"].Spreader {
		t.Error("superspreader flagged a single-destination attack")
	}
	// CPM alarms on floods AND on scans — its documented inability to
	// differentiate.
	if !byName["Spoofed DoS"].CPM {
		t.Error("CPM missed the flood")
	}
	if !byName["Hscan"].CPM {
		t.Error("CPM should alarm under heavy scanning (it cannot differentiate)")
	}
	if FormatTable1(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestTable4PhaseReductions(t *testing.T) {
	d, err := Table4(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// NU shape (paper: flooding 157→157→32, hscan 988→936→936,
	// vscan 73→19→19):
	if d.NU.Raw.Flood <= d.NU.Final.Flood {
		t.Errorf("NU flooding not reduced by phase 3: %d → %d", d.NU.Raw.Flood, d.NU.Final.Flood)
	}
	if d.NU.Final.Flood == 0 {
		t.Error("NU real floods were all filtered out")
	}
	if d.NU.Raw.VScan <= d.NU.Phase2.VScan {
		t.Errorf("NU vscan FPs not reduced by phase 2: %d → %d", d.NU.Raw.VScan, d.NU.Phase2.VScan)
	}
	if d.NU.Raw.HScan <= d.NU.Phase2.HScan {
		t.Errorf("NU hscan FPs not reduced by phase 2: %d → %d", d.NU.Raw.HScan, d.NU.Phase2.HScan)
	}
	if d.NU.Phase2.HScan == 0 || d.NU.Phase2.VScan == 0 {
		t.Error("phase 2 removed the real scans too")
	}
	// Hscan-dominance as in the paper.
	if d.NU.Final.HScan <= d.NU.Final.VScan {
		t.Error("NU should be hscan-dominated")
	}
	// LBL shape (paper: flooding 35→35→0).
	if d.LBL.Raw.Flood == 0 {
		t.Error("LBL should have raw flooding FPs from benign anomalies")
	}
	if d.LBL.Final.Flood != 0 {
		t.Errorf("LBL final flooding = %d, want 0 (no real floods)", d.LBL.Final.Flood)
	}
	// Accuracy: no false positives in the final phase and no missed
	// at-threshold attacks (slow stealth scans are expected misses).
	if d.NUOutcome.FalsePositives != 0 {
		t.Errorf("NU final phase has %d FPs", d.NUOutcome.FalsePositives)
	}
	if d.LBLOutcome.FalsePositives != 0 {
		t.Errorf("LBL final phase has %d FPs", d.LBLOutcome.FalsePositives)
	}
	out := FormatTable4(d)
	if !strings.Contains(out, "NU") || !strings.Contains(out, "LBL") {
		t.Error("rendering incomplete")
	}
}

func TestTable5TRWOverlap(t *testing.T) {
	rows, err := Table5(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.HiFIND == 0 || r.TRW == 0 {
			t.Fatalf("%s: degenerate comparison %+v", r.Trace, r)
		}
		// "Very good overlap, except for a few special cases" (§5.3.1):
		// the overlap covers most of each side but neither side is a
		// subset — mixed-outcome scans are HiFIND-only, slow scans are
		// TRW-only.
		if r.Overlap*2 < r.HiFIND {
			t.Errorf("%s: overlap %d too small vs HiFIND %d", r.Trace, r.Overlap, r.HiFIND)
		}
		if r.Overlap*2 < r.TRW {
			t.Errorf("%s: overlap %d too small vs TRW %d", r.Trace, r.Overlap, r.TRW)
		}
	}
	// The NU trace has both asymmetric cases injected.
	nu := rows[0]
	if nu.HiFIND <= nu.Overlap {
		t.Error("expected HiFIND-only scanners (mixed outcomes blind TRW)")
	}
	if nu.TRW <= nu.Overlap {
		t.Error("expected TRW-only scanners (slow scans under HiFIND's threshold)")
	}
	if FormatTable5(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestTable6CPMComparison(t *testing.T) {
	rows, err := Table6(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table6Row{}
	for _, r := range rows {
		byName[r.Trace] = r
	}
	// LBL: no real floods ⇒ HiFIND 0, CPM many (scan-heavy), overlap 0 —
	// the paper's key Table 6 result.
	lbl := byName["LBL"]
	if lbl.HiFIND != 0 {
		t.Errorf("LBL HiFIND flooding intervals = %d, want 0", lbl.HiFIND)
	}
	if lbl.CPM == 0 {
		t.Error("LBL CPM should false-alarm on the scan mixture")
	}
	if lbl.Overlap != 0 {
		t.Errorf("LBL overlap = %d, want 0", lbl.Overlap)
	}
	// NU: both fire; overlap covers most of HiFIND's intervals.
	nu := byName["NU"]
	if nu.HiFIND == 0 || nu.CPM == 0 {
		t.Fatalf("NU degenerate: %+v", nu)
	}
	if nu.Overlap*2 < nu.HiFIND {
		t.Errorf("NU overlap %d small vs HiFIND %d", nu.Overlap, nu.HiFIND)
	}
	if FormatTable6(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestTable78Rankings(t *testing.T) {
	top, bottom, err := Table78(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 || len(bottom) == 0 {
		t.Fatal("empty rankings")
	}
	if top[0].Change < bottom[len(bottom)-1].Change {
		t.Error("top/bottom ordering inverted")
	}
	// The top scans are the wide sweeps; causes must join from truth.
	knownCause := 0
	for _, r := range top {
		if !strings.Contains(r.Cause, "unknown") {
			knownCause++
		}
	}
	if knownCause == 0 {
		t.Error("no top scan matched ground truth")
	}
	if FormatTable78(top, bottom) == "" {
		t.Error("empty rendering")
	}
}

func TestFigure4Bimodal(t *testing.T) {
	h, err := Figure4(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	low, mid, high := 0, 0, 0
	for bin, n := range h.Counts {
		switch {
		case bin < 20:
			low += n
		case bin < 100:
			mid += n
		default:
			high += n
		}
	}
	if low == 0 {
		t.Error("flooding mode empty")
	}
	if high == 0 {
		t.Error("vscan mode empty")
	}
	if mid > low/2 && mid > high/2 {
		t.Errorf("valley not empty enough: low=%d mid=%d high=%d", low, mid, high)
	}
	if FormatFigure4(h) == "" {
		t.Error("empty rendering")
	}
}

func TestMultiRouterEquivalence(t *testing.T) {
	res, err := MultiRouter(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.SingleAlerts == 0 {
		t.Fatal("single-router run detected nothing")
	}
	if res.MissingFromAgg != 0 {
		t.Errorf("aggregated detection lost %d of %d alerts", res.MissingFromAgg, res.SingleAlerts)
	}
	if res.AggregatedAlerts != res.SingleAlerts {
		t.Errorf("aggregated %d alerts vs single %d", res.AggregatedAlerts, res.SingleAlerts)
	}
	// TRW per-router union misses scanners whose evidence was split
	// (§5.3.2: "high false positives or negatives").
	if res.TRWSummed >= res.TRWSingle {
		t.Logf("note: TRW per-router union %d vs single %d (split evidence can also inflate)",
			res.TRWSummed, res.TRWSingle)
	}
}

func TestValidationBackscatter(t *testing.T) {
	run, err := RunAll(NUTrace(QuickScale()))
	if err != nil {
		t.Fatal(err)
	}
	v := Validation(run)
	if v.FinalFloods == 0 {
		t.Fatal("no final floods to validate")
	}
	// Spoofed floods validate via backscatter; non-spoofed ones cannot
	// (their responses go to one real source), so matched < total but > 0.
	if v.BackscatterMatched == 0 {
		t.Error("no flood validated by backscatter")
	}
	if v.BackscatterMatched > v.FinalFloods {
		t.Error("matched more than detected")
	}
}

func TestTable9MemoryOrdering(t *testing.T) {
	d, err := Table9(200000)
	if err != nil {
		t.Fatal(err)
	}
	for speed, inner := range d.Cells {
		for minutes, cell := range inner {
			if cell.Sketch >= cell.TRW || cell.TRW >= cell.PerFlow {
				t.Errorf("%d/%dmin: ordering broken: sketch=%d trw=%d perflow=%d",
					speed, minutes, cell.Sketch, cell.TRW, cell.PerFlow)
			}
			// Sketch stays in MBs; per-flow reaches GBs (paper: 13.2MB vs
			// 10.3–206GB).
			if cell.Sketch > 20<<20 {
				t.Errorf("sketch memory %d exceeds 20MB", cell.Sketch)
			}
			if cell.PerFlow < 1<<30 {
				t.Errorf("per-flow memory %d under 1GB", cell.PerFlow)
			}
		}
	}
	// Measured on 200k worst-case packets: sketch memory is fixed and far
	// below both stateful methods.
	if d.MeasuredSketch >= d.MeasuredFlowTable {
		t.Errorf("measured sketch %d ≥ flowtable %d", d.MeasuredSketch, d.MeasuredFlowTable)
	}
	if d.MeasuredSketch >= d.MeasuredTRW {
		t.Errorf("measured sketch %d ≥ trw %d", d.MeasuredSketch, d.MeasuredTRW)
	}
	if FormatTable9(d) == "" {
		t.Error("empty rendering")
	}
}

// TestTable9MeasuredFlowTable pins the per-flow side of Table 9's
// measured point: 10 000 spoofed SYNs from distinct sources leave 20 001
// exact-table entries (one {SIP,Dport} and one {SIP,DIP} key each, plus
// the victim's single {DIP,Dport} key) at 48 bytes apiece.
func TestTable9MeasuredFlowTable(t *testing.T) {
	m, err := Table9Measured(10000)
	if err != nil {
		t.Fatal(err)
	}
	if m.FlowTable != 960048 {
		t.Errorf("Table9Measured(10000).FlowTable = %d, want 960048", m.FlowTable)
	}
}

func TestMemoryAccessesReport(t *testing.T) {
	r, err := MemoryAccesses()
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalPerSYN != 52 {
		t.Errorf("total accesses per SYN = %d, want 52", r.TotalPerSYN)
	}
	if FormatAccesses(r) == "" {
		t.Error("empty rendering")
	}
}

func TestThroughputReport(t *testing.T) {
	r, err := Throughput(200000)
	if err != nil {
		t.Fatal(err)
	}
	if r.InsertionsPerSec < 1e5 {
		t.Errorf("implausibly slow: %.0f inserts/sec", r.InsertionsPerSec)
	}
	if r.WorstCaseGbps <= 0 {
		t.Error("Gbps not computed")
	}
}

func TestDetectionTimeBounded(t *testing.T) {
	lat, err := DetectionTime(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if lat.Intervals == 0 {
		t.Fatal("no intervals")
	}
	// The paper's bar: detection far faster than the interval length.
	if lat.MaxSec > 10 {
		t.Errorf("detection took %.1fs, exceeding any online budget", lat.MaxSec)
	}
}

func TestStress60x(t *testing.T) {
	lat, err := Stress60x(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if lat.Intervals != 2 {
		t.Fatalf("stress ran %d blocks", lat.Intervals)
	}
	if lat.MaxSec > 50 {
		t.Errorf("stress detection %.1fs, paper's bar is <60s", lat.MaxSec)
	}
}

func TestAblationVerifierMatters(t *testing.T) {
	points, err := AblationVerifier(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	on, off := points[0], points[1]
	if off.FalsePositives < on.FalsePositives {
		t.Errorf("verifier off should not reduce FPs: on=%d off=%d",
			on.FalsePositives, off.FalsePositives)
	}
	if on.TruePositives == 0 {
		t.Error("verifier on detected nothing")
	}
	if FormatAblation("verifier", points) == "" {
		t.Error("empty rendering")
	}
}

func TestAblationEWMASweep(t *testing.T) {
	points, err := AblationEWMA(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}
	for _, p := range points {
		if p.TruePositives == 0 {
			t.Errorf("%s: no detections", p.Label)
		}
	}
}

func TestAblationModularCost(t *testing.T) {
	m, err := AblationModularVsDirect(200000)
	if err != nil {
		t.Fatal(err)
	}
	if m.RevInsertsPerSec <= 0 || m.KaryInsertsPerSec <= 0 {
		t.Fatal("rates not measured")
	}
	if FormatModularCost(m) == "" {
		t.Error("empty rendering")
	}
}

func TestAblationThresholdSweep(t *testing.T) {
	points, err := AblationThreshold(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("%d points", len(points))
	}
	// Misses must grow monotonically as the threshold rises past attack
	// rates, and the paper's operating point (1 SYN/s) must stay FP-free.
	for i := 1; i < len(points); i++ {
		if points[i].Missed < points[i-1].Missed {
			t.Errorf("misses not monotone: %+v", points)
		}
	}
	for _, p := range points {
		if p.ThresholdPerSec == 1 && p.FalsePositives != 0 {
			t.Errorf("paper operating point has %d FPs", p.FalsePositives)
		}
	}
	if points[0].TruePositives < points[len(points)-1].TruePositives {
		t.Log("note: lower thresholds catch at least as many attacks")
	}
	if FormatThreshold(points) == "" {
		t.Error("empty rendering")
	}
}

func TestTable1PCFColumn(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Scenario] = r
	}
	// PCF (victim-keyed) sees both flood variants but no scan — and even
	// for floods it reports only the victim, never the attack type.
	if !byName["Spoofed DoS"].PCF || !byName["Non-spoofed DoS"].PCF {
		t.Error("PCF missed a flood victim")
	}
	if byName["Hscan"].PCF {
		t.Error("victim-keyed PCF should not flag a horizontal scan")
	}
}

func TestTimeToDetection(t *testing.T) {
	sum, reports, err := TimeToDetection(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Detected == 0 {
		t.Fatal("nothing detected")
	}
	// Scans alert on their first anomalous interval; floods wait out the
	// persistence filter (2 intervals). Mean must stay in the low single
	// digits — the "early phase" requirement of the paper's introduction.
	if sum.MeanIntervals > 3 {
		t.Errorf("mean detection latency %.1f intervals too high", sum.MeanIntervals)
	}
	if sum.MaxIntervals > 5 {
		t.Errorf("max detection latency %d intervals too high", sum.MaxIntervals)
	}
	// The known blind spots account for every miss: sub-threshold slow
	// scans and the stealth floods Phase 2 reclassifies away.
	for _, r := range reports {
		if r.Latency >= 0 {
			continue
		}
		c := r.Attack.Cause
		if !strings.Contains(c, "slow") && !strings.Contains(c, "FP") {
			t.Errorf("unexpected miss: %s (%s)", r.Attack.Type, c)
		}
	}
	_ = sum
}
