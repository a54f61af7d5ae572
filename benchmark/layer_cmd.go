package main

// cmdRows reports what the binary adds around the facade: the time from
// exec to its startup event (flag parsing, 13 MB of sketches, opening
// the capture) and how much it writes to stdout.
func cmdRows(ms *metricSet, run childRun) {
	ms.set("cmd.startup_ms", float64(run.Startup)/1e6)
	ms.set("cmd.stdout_bytes", float64(len(run.Stdout)))
}
