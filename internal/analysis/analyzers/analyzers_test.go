package analyzers

import (
	"testing"

	"cubefit/internal/analysis/analysistest"
)

func TestAllIsComplete(t *testing.T) {
	all := All()
	if len(all) != 9 {
		t.Fatalf("All() returned %d analyzers, want 9", len(all))
	}
	seen := make(map[string]bool)
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing Name, Doc, or Run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

func TestFloatcmp(t *testing.T) {
	analysistest.Run(t, Floatcmp, "testdata/floatcmp/flagged", "cubefit/fixture/floatcmp")
	analysistest.RunClean(t, Floatcmp, "testdata/floatcmp/clean", "cubefit/fixture/floatcmp")
}

func TestEpsconst(t *testing.T) {
	analysistest.Run(t, Epsconst, "testdata/epsconst/flagged", "cubefit/fixture/epsconst")
	analysistest.RunClean(t, Epsconst, "testdata/epsconst/clean", "cubefit/fixture/epsconst")
}

// TestEpsconstPackingExemption loads the packing fixture under the real
// internal/packing import path: its top-level const block may define
// tolerance literals, but a bare literal in a function body is still
// reported.
func TestEpsconstPackingExemption(t *testing.T) {
	analysistest.Run(t, Epsconst, "testdata/epsconst/packing", packingPath)
}

func TestRandsource(t *testing.T) {
	analysistest.Run(t, Randsource, "testdata/randsource/flagged", "cubefit/fixture/randsource")
	analysistest.RunClean(t, Randsource, "testdata/randsource/clean", "cubefit/fixture/randsource")
	analysistest.RunClean(t, Randsource, "testdata/randsource/rng", rngPath)
}

func TestWallclock(t *testing.T) {
	analysistest.Run(t, Wallclock, "testdata/wallclock/flagged", "cubefit/fixture/wallclock")
	analysistest.RunClean(t, Wallclock, "testdata/wallclock/clean", "cubefit/fixture/wallclock")
	analysistest.RunClean(t, Wallclock, "testdata/wallclock/seam", "cubefit/internal/metrics")
}

func TestLockpair(t *testing.T) {
	analysistest.Run(t, Lockpair, "testdata/lockpair/flagged", "cubefit/fixture/lockpair")
	analysistest.RunClean(t, Lockpair, "testdata/lockpair/clean", "cubefit/fixture/lockpair")
}

// TestMaprange loads the flagged and clean fixtures under a real
// determinism-critical import path (the analyzer is keyed on the package
// path) and the third fixture under a neutral path, where map iteration
// is unrestricted.
func TestMaprange(t *testing.T) {
	analysistest.Run(t, Maprange, "testdata/maprange/flagged", "cubefit/internal/core")
	analysistest.RunClean(t, Maprange, "testdata/maprange/clean", "cubefit/internal/core")
	analysistest.RunClean(t, Maprange, "testdata/maprange/other", "cubefit/fixture/maprange")
}

func TestFailclosed(t *testing.T) {
	analysistest.Run(t, Failclosed, "testdata/failclosed/flagged", "cubefit/fixture/failclosed")
	analysistest.RunClean(t, Failclosed, "testdata/failclosed/clean", "cubefit/fixture/failclosed")
}

func TestGuardedby(t *testing.T) {
	analysistest.Run(t, Guardedby, "testdata/guardedby/flagged", "cubefit/fixture/guardedby")
	analysistest.RunClean(t, Guardedby, "testdata/guardedby/clean", "cubefit/fixture/guardedby")
}

func TestHotpath(t *testing.T) {
	analysistest.Run(t, Hotpath, "testdata/hotpath/flagged", "cubefit/fixture/hotpath")
	analysistest.RunClean(t, Hotpath, "testdata/hotpath/clean", "cubefit/fixture/hotpath")
}
