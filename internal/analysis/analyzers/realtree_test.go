package analyzers

import (
	"testing"

	"cubefit/internal/analysis"
)

// The real-tree negative tests: the hotpath and guarded-by analyzers are
// annotation-driven, so deleting an annotation silences them without any
// finding. These tests pin the annotations themselves — removing
// //cubefit:hotpath from a core hot loop or //cubefit:guarded-by from a
// Controller/WAL/JSONL field fails here — and additionally assert that
// the annotated real packages analyze clean, so the suppressions in the
// tree stay honest.

// loadReal loads real repository packages through the module-aware
// loader. Directories are relative to this package's directory; external
// test variants are dropped because annotations live in shipped sources.
func loadReal(t *testing.T, dirs ...string) []*analysis.Package {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(dirs...)
	if err != nil {
		t.Fatal(err)
	}
	kept := pkgs[:0]
	for _, p := range pkgs {
		if !p.ExternalTest {
			kept = append(kept, p)
		}
	}
	return kept
}

// collectPass wraps a loaded package for the Collect helpers.
func collectPass(p *analysis.Package) *analysis.Pass {
	return &analysis.Pass{Fset: p.Fset, Path: p.Path, Files: p.Files, Pkg: p.Pkg, Info: p.Info}
}

func TestRealTreeHotpathAnnotationsPresent(t *testing.T) {
	pkgs := loadReal(t, "../../core", "../../obs", "../../packing", "../../api")
	got := make(map[string]bool)
	for _, p := range pkgs {
		for _, fn := range CollectHotpathFuncs(collectPass(p)) {
			got[p.Path+"."+fn.Name] = true
		}
	}
	want := []string{
		// The placement engine's per-admission loops.
		"cubefit/internal/core.CubeFit.emit",
		"cubefit/internal/core.CubeFit.tryFirstStage",
		"cubefit/internal/core.CubeFit.bestMFitIndexed",
		"cubefit/internal/core.CubeFit.firstMFit",
		"cubefit/internal/core.CubeFit.bestMFitScan",
		"cubefit/internal/core.CubeFit.placedHosts",
		"cubefit/internal/core.CubeFit.mFits",
		"cubefit/internal/core.topSharedAdjusted",
		"cubefit/internal/core.hostsTenant",
		"cubefit/internal/core.CubeFit.placeAtCursor",
		"cubefit/internal/core.CubeFit.advance",
		"cubefit/internal/core.CubeFit.refreshBin",
		// The Best-Fit index: filing, unfiling and re-keying a bin, and
		// the slack-maximum pull every tree step runs.
		"cubefit/internal/core.fitIndex.insert",
		"cubefit/internal/core.fitIndex.remove",
		"cubefit/internal/core.fitIndex.update",
		"cubefit/internal/core.subMax",
		// The incremental reserve cache: the digest maintenance on every
		// shared-load delta and the cached compare inside mFits.
		"cubefit/internal/core.CubeFit.sharedChanged",
		"cubefit/internal/core.CubeFit.adjustedReserve",
		"cubefit/internal/core.topKDigest.update",
		"cubefit/internal/core.topKDigest.insert",
		"cubefit/internal/core.topKDigest.topSum",
		"cubefit/internal/core.topKDigest.adjustedTopSum",
		// The write-ahead log's record encoder, run for every operation
		// under the controller lock.
		"cubefit/internal/obs.appendOp",
		// The pooled admission-span seam and its ring recorder.
		"cubefit/internal/obs.AcquireSpan",
		"cubefit/internal/obs.ReleaseSpan",
		"cubefit/internal/obs.Span.Normalize",
		"cubefit/internal/obs.SpanRing.RecordSpan",
		// The pipeline tracer's per-admission instrumentation points.
		"cubefit/internal/api.pipelineTracer.now",
		"cubefit/internal/api.pipelineTracer.enqueued",
		"cubefit/internal/api.pipelineTracer.dequeued",
		"cubefit/internal/api.pipelineTracer.finish",
		// The allocation-free placement accessors the engine leans on,
		// and the tenant-row lookup and shared-load update under every
		// placement mutation.
		"cubefit/internal/packing.Placement.row",
		"cubefit/internal/packing.Server.addShared",
		"cubefit/internal/packing.Placement.ReplicasInto",
		"cubefit/internal/packing.Placement.TenantHostsInto",
		"cubefit/internal/packing.Placement.EachTenantHost",
		"cubefit/internal/packing.Server.TopShared",
		"cubefit/internal/packing.Server.EachShared",
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("hot loop %s has lost its //cubefit:hotpath annotation", w)
		}
	}
}

func TestRealTreeGuardedByAnnotationsPresent(t *testing.T) {
	pkgs := loadReal(t, "../../obs", "../../api")
	got := make(map[string]string)
	for _, p := range pkgs {
		for _, gf := range CollectGuardedFields(collectPass(p)) {
			got[p.Path+"."+gf.Struct+"."+gf.Field] = gf.Mutex
		}
	}
	want := map[string]string{
		"cubefit/internal/obs.WAL.bw":            "mu",
		"cubefit/internal/obs.WAL.op":            "mu",
		"cubefit/internal/obs.WAL.buf":           "mu",
		"cubefit/internal/obs.WAL.n":             "mu",
		"cubefit/internal/obs.WAL.synced":        "mu",
		"cubefit/internal/obs.WAL.err":           "mu",
		"cubefit/internal/obs.WAL.closed":        "mu",
		"cubefit/internal/obs.JSONL.enc":         "mu",
		"cubefit/internal/obs.JSONL.n":           "mu",
		"cubefit/internal/obs.JSONL.err":         "mu",
		"cubefit/internal/api.Controller.snap":   "mu",
		"cubefit/internal/api.Controller.closed": "sendMu",
	}
	for field, mu := range want {
		if got[field] != mu {
			t.Errorf("field %s: guarded-by %q, want %q (annotation removed or retargeted)", field, got[field], mu)
		}
	}
}

// TestRealTreeAnnotatedPackagesClean re-runs the annotation-driven
// analyzers over the real packages: the annotations must hold, with every
// cold edge carrying an explicit vet-allow.
func TestRealTreeAnnotatedPackagesClean(t *testing.T) {
	pkgs := loadReal(t, "../../core", "../../obs", "../../packing", "../../api")
	diags, err := analysis.Run([]*analysis.Analyzer{Guardedby, Hotpath}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}
