// Command cubefit-inspect audits a placement snapshot (the JSON produced
// by the controller's GET /v1/placement or by internal/trace): it
// validates the robustness invariant, summarizes utilization, lists the
// most loaded servers, and runs worst-case failure drills.
//
// The explain subcommand instead replays an operation log (the log
// written by `cubefit-server -wal` or `cubefit-sim -wal`) through a fresh
// CubeFit with a recorder attached, the loop the server boots through
// (recovery.Replay). CubeFit is deterministic, so the replay regenerates
// the decision stream the run emitted, and explain reconstructs each
// tenant's admission path from it — first-stage bin IDs, or cube
// class/counter/digits/slot, or the tiny policy, or a rejection. Given a
// snapshot too, it cross-checks the reconstructed servers against the
// placement and prints the replica-to-server failover attribution.
//
// The headroom subcommand replays the same log with the incremental
// robustness headroom auditor (internal/headroom) as the engine's
// recorder and reports the worst-case failover safety margin over time:
// one sample per operation of the log (-csv for the raw series, whose op
// column is the operation's position in the log), the trough, and the
// tightest servers with their arg-max failure sets attributed to the
// tenants causing them.
//
// Both take γ from the log's first admission (2 when it holds none) and K
// from -k, which the log does not record and which must be the writing
// run's (cubefit-server's default is 10). Both drop a torn final record,
// as boot does, and say so, except in -csv output.
//
// The latency subcommand replays an admission span log (the JSONL written
// by `cubefit-server -spans`) and decomposes end-to-end admission latency
// into pipeline stages — queue, place, WAL stage, fsync, ack — with
// per-stage P50/P99, the telescoping reconciliation check, and fsync
// amortization versus group-commit size.
//
// The health subcommand replays a health log (the JSONL written by
// `cubefit-server -health-log`) through a fresh telemetry rule engine
// and reconstructs the verdict timeline — every healthy/degraded/critical
// transition with its firing rules and evidence — then checks parity
// against the transitions the live run recorded; a mismatch exits
// non-zero.
//
// Usage:
//
//	cubefit-inspect placement.json
//	curl -s localhost:8080/v1/placement | cubefit-inspect
//	cubefit-inspect -drills 2 placement.json
//	cubefit-inspect explain -wal run.wal [-k 10] [placement.json]
//	cubefit-inspect explain -wal run.wal [-k 10] -tenant 42 placement.json
//	cubefit-inspect headroom -wal run.wal [-k 10] [-redline 0.05] [-top 5] [-csv]
//	cubefit-inspect latency -spans spans.jsonl [-json]
//	cubefit-inspect health -log health.jsonl [-json]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"cubefit/internal/core"
	"cubefit/internal/failure"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/recovery"
	"cubefit/internal/report"
	"cubefit/internal/trace"
	"cubefit/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cubefit-inspect:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, out io.Writer) error {
	if len(args) > 0 && args[0] == "explain" {
		return runExplain(args[1:], out)
	}
	if len(args) > 0 && args[0] == "headroom" {
		return runHeadroom(args[1:], out)
	}
	if len(args) > 0 && args[0] == "latency" {
		return runLatency(args[1:], out)
	}
	if len(args) > 0 && args[0] == "health" {
		return runHealth(args[1:], out)
	}
	fs := flag.NewFlagSet("cubefit-inspect", flag.ContinueOnError)
	var (
		drills = fs.Int("drills", 0, "run worst-case failure drills for 1..N simultaneous failures (default γ−1)")
		top    = fs.Int("top", 5, "show the N most loaded servers")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		//cubefit:vet-allow failclosed -- snapshot opened read-only; closing it cannot lose data
		defer f.Close()
		in = f
	}
	snap, err := trace.Read(in)
	if err != nil {
		return err
	}
	p, err := trace.Restore(snap)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "placement: γ=%d, %d tenants, %d servers used (%d opened)\n",
		p.Gamma(), p.NumTenants(), p.NumUsedServers(), p.NumServers())
	fmt.Fprintf(out, "total load %.2f, utilization %.1f%%\n", p.TotalLoad(), 100*p.Utilization())

	if err := p.Validate(); err != nil {
		fmt.Fprintf(out, "ROBUSTNESS: VIOLATED — %v\n", err)
	} else {
		fmt.Fprintf(out, "robustness: OK (tolerates any %d simultaneous failures)\n", p.Gamma()-1)
	}

	// Most loaded servers with their failover reserves.
	servers := append([]*packing.Server(nil), p.Servers()...)
	sort.Slice(servers, func(i, j int) bool {
		if servers[i].Level() != servers[j].Level() { //cubefit:vet-allow floatcmp -- exact tie-break keeps the comparator a strict weak order
			return servers[i].Level() > servers[j].Level()
		}
		return servers[i].ID() < servers[j].ID()
	})
	n := *top
	if n > len(servers) {
		n = len(servers)
	}
	if n > 0 {
		fmt.Fprintf(out, "\ntop %d servers by load:\n", n)
		tb := report.NewTable("Server", "Level", "Replicas", "Reserve", "Headroom")
		for _, s := range servers[:n] {
			reserve := s.TopShared(p.Gamma() - 1)
			tb.AddRow(
				fmt.Sprintf("%d", s.ID()),
				fmt.Sprintf("%.3f", s.Level()),
				fmt.Sprintf("%d", s.NumReplicas()),
				fmt.Sprintf("%.3f", reserve),
				fmt.Sprintf("%.3f", 1-s.Level()-reserve),
			)
		}
		if err := tb.Render(out); err != nil {
			return err
		}
	}

	// Failure drills.
	maxDrill := *drills
	if maxDrill == 0 {
		maxDrill = p.Gamma() - 1
	}
	if maxDrill > 0 && p.NumUsedServers() > 0 {
		fmt.Fprintf(out, "\nworst-case failure drills (client capacity %d):\n", workload.MaxClientsPerServer)
		tb := report.NewTable("Failures", "Servers", "Max client load", "Post-failure load", "Lost clients")
		for f := 1; f <= maxDrill && f < p.NumServers(); f++ {
			plan, err := failure.WorstCase(p, f)
			if err != nil {
				return err
			}
			tb.AddRow(
				fmt.Sprintf("%d", f),
				fmt.Sprintf("%v", plan.Servers),
				fmt.Sprintf("%.1f", plan.MaxClientLoad),
				fmt.Sprintf("%.3f", p.MaxPostFailureLoad(plan.Servers)),
				fmt.Sprintf("%d", plan.LostClients),
			)
		}
		if err := tb.Render(out); err != nil {
			return err
		}
	}
	return nil
}

// openLog reads the operation log at path and builds the fresh CubeFit
// it replays into: γ from the log's first admission (cubefit-server's
// default when it holds none) and the given K, which the log does not
// record. A torn final record is dropped, as boot drops it, and said so
// on note when note is not nil.
func openLog(path string, k int, note io.Writer) (*core.CubeFit, []obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	//cubefit:vet-allow failclosed -- log opened read-only; closing it cannot lose data
	defer f.Close()
	events, torn, err := obs.ReadWAL(f)
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if torn && note != nil {
		fmt.Fprintf(note, "%s ends in a torn record: replaying its committed prefix\n", path)
	}
	cfg := core.DefaultConfig()
	cfg.K = k
	var fold obs.OpFold
	for i := range events {
		op, err := fold.Next(&events[i])
		if err != nil {
			break // the replay reports it
		}
		if op != nil && op.Kind == obs.KindAdmit {
			cfg.Gamma = len(op.Hosts)
			break
		}
	}
	cf, err := core.New(cfg)
	return cf, events, err
}

// replayLog replays the events of path through cf with recovery.Replay,
// the loop cubefit-server boots through; fn is its per-operation
// callback.
func replayLog(cf *core.CubeFit, events []obs.Event, path string, fn func(int, obs.Op)) error {
	if _, err := recovery.Replay(cf, events, fn); err != nil {
		return fmt.Errorf("replaying %s at γ=%d, K=%d (-k must match the run that wrote it): %w",
			path, cf.Config().Gamma, cf.Config().K, err)
	}
	return nil
}

// eventSlice is a recorder that keeps every decision event.
type eventSlice []obs.Event

func (s *eventSlice) Record(e obs.Event) { *s = append(*s, e) }

// runExplain replays an operation log with a recorder attached and
// reports the reconstructed admission paths; see the package comment for
// usage.
func runExplain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cubefit-inspect explain", flag.ContinueOnError)
	var (
		walPath = fs.String("wal", "", "operation log to replay (required)")
		k       = fs.Int("k", core.DefaultConfig().K, "CubeFit classes of the run that wrote the log (cubefit-server -k)")
		tenant  = fs.Int("tenant", -1, "show the full decision trail of one tenant")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *walPath == "" {
		return fmt.Errorf("explain: -wal is required")
	}
	cf, log, err := openLog(*walPath, *k, out)
	if err != nil {
		return err
	}
	var events eventSlice
	cf.SetRecorder(&events)
	if err := replayLog(cf, log, *walPath, nil); err != nil {
		return err
	}
	ds := obs.Decisions(events)

	var snap *trace.Snapshot
	if fs.NArg() > 0 {
		sf, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		//cubefit:vet-allow failclosed -- snapshot opened read-only; closing it cannot lose data
		defer sf.Close()
		s, err := trace.Read(sf)
		if err != nil {
			return err
		}
		snap = &s
	}

	if *tenant >= 0 {
		return explainTenant(out, ds, snap, *tenant)
	}

	fmt.Fprintf(out, "%d events, %d tenant admissions reconstructed\n", len(events), len(ds))
	counts := obs.CountPaths(ds)
	paths := make([]string, 0, len(counts))
	for p := range counts {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	fmt.Fprintln(out, "\nadmission paths:")
	for _, p := range paths {
		fmt.Fprintf(out, "  %-12s %d\n", p, counts[p])
	}
	if snap != nil {
		checked, mismatched := crossCheck(out, ds, *snap)
		fmt.Fprintf(out, "\nsnapshot cross-check: %d tenants checked, %d mismatched\n",
			checked, mismatched)
		if mismatched > 0 {
			return fmt.Errorf("explain: %d tenants disagree with the snapshot", mismatched)
		}
	}
	return nil
}

// explainTenant prints one tenant's full reconstructed decision.
func explainTenant(out io.Writer, ds []obs.Decision, snap *trace.Snapshot, tenant int) error {
	var d *obs.Decision
	for i := range ds {
		if ds[i].Tenant == tenant {
			d = &ds[i]
			break
		}
	}
	if d == nil {
		return fmt.Errorf("explain: tenant %d not found in the log", tenant)
	}
	fmt.Fprintf(out, "tenant %d (%s): path=%s size=%.4f probes=%d\n",
		d.Tenant, d.Engine, d.Path, d.Size, d.Probes)
	if d.Class != obs.Unset {
		fmt.Fprintf(out, "  cube: class=%d tiny=%v counter=%d digits=%v\n",
			d.Class, d.Tiny, d.Counter, d.Digits)
	}
	for _, r := range d.Replicas {
		how := "cube slot"
		slot := fmt.Sprintf("%d", r.Slot)
		if r.FirstStage {
			how, slot = "first-stage best fit", "-"
		} else if r.Slot == obs.Unset {
			how, slot = "single-stage", "-"
		}
		fmt.Fprintf(out, "  replica %d -> server %d  slot %s  (%s)\n",
			r.Replica, r.Server, slot, how)
	}
	for _, reason := range d.Rollbacks {
		fmt.Fprintf(out, "  rollback: %s\n", reason)
	}
	if d.Reason != "" {
		fmt.Fprintf(out, "  rejected: %s\n", d.Reason)
	}
	if snap != nil {
		ats, err := obs.Attribute(*snap, tenant)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "  failover attribution (snapshot):")
		for _, at := range ats {
			fmt.Fprintf(out, "    replica %d on server %d -> fails over to %v\n",
				at.Replica, at.Server, at.FailoverTo)
		}
	}
	return nil
}

// crossCheck compares each admitted tenant's reconstructed replica
// servers against the snapshot and prints any disagreement.
func crossCheck(out io.Writer, ds []obs.Decision, snap trace.Snapshot) (checked, mismatched int) {
	hosts := make(map[int][]int)
	for _, s := range snap.Servers {
		for _, r := range s.Replicas {
			hosts[r.Tenant] = append(hosts[r.Tenant], s.ID)
		}
	}
	for _, d := range ds {
		got, inSnap := hosts[d.Tenant]
		if !inSnap {
			continue // departed or rejected
		}
		checked++
		want := make([]int, 0, len(d.Replicas))
		for _, r := range d.Replicas {
			want = append(want, r.Server)
		}
		sort.Ints(got)
		sort.Ints(want)
		if !equalInts(got, want) {
			mismatched++
			fmt.Fprintf(out, "  MISMATCH tenant %d: log says %v, snapshot says %v\n",
				d.Tenant, want, got)
		}
	}
	return checked, mismatched
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
