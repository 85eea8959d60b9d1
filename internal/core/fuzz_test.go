package core

import (
	"testing"

	"cubefit/internal/packing"
	"cubefit/internal/rng"
	"cubefit/internal/workload"
)

// Engine operations a fuzz input can drive. Each operation takes two
// bytes: the operation and its argument.
const (
	fuzzPlace = iota
	fuzzRemove
	fuzzOps
)

// fuzzMaxOps caps the operations one input applies, so the fuzzer spends
// its time on many short histories rather than on checking a few long ones.
const fuzzMaxOps = 64

// FuzzCubeFitOps drives Place and Remove on one engine (γ ∈ {2, 3},
// PruneSlack ∈ {0, 0.05}) and checks, after every operation, the Best-Fit
// index against a recomputation from the bins (checkFitIndex), every
// bin's cached level and slack (checkBinCaches), the reserve digests
// (checkDigests) and the robustness invariant (Validate). Departures and
// retirements in any order reach the first stage's deferred refresh,
// including a fallback whose transient placement would retire its bin.
//
// Input layout: byte 0 picks γ (bit 0) and PruneSlack (bit 1), then two
// bytes per operation, at most fuzzMaxOps of them. A place admits a new
// tenant of 1 + arg%52 clients through the default load model; a remove
// departs the live tenant arg selects (a place when none is live).
func FuzzCubeFitOps(f *testing.F) {
	for _, seed := range cubeFitFuzzSeeds() {
		f.Add(seed)
	}
	model := workload.DefaultLoadModel()
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 1 {
			return
		}
		cfg := Config{Gamma: 2 + int(in[0]&1), K: 10}
		if in[0]&2 != 0 {
			cfg.PruneSlack = 0.05
		}
		cf := mustCubeFit(t, cfg)
		if max := 1 + 2*fuzzMaxOps; len(in) > max {
			in = in[:max]
		}
		var live []packing.TenantID
		for op := 1; op+2 <= len(in); op += 2 {
			arg := int(in[op+1])
			if int(in[op])%fuzzOps == fuzzPlace || len(live) == 0 {
				c := 1 + arg%workload.MaxClientsPerServer
				tn := packing.Tenant{ID: packing.TenantID(op), Load: model.Load(c), Clients: c}
				if err := cf.Place(tn); err != nil {
					t.Fatalf("place %+v: %v", tn, err)
				}
				live = append(live, tn.ID)
			} else {
				i := arg % len(live)
				id := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := cf.Remove(id); err != nil {
					t.Fatalf("remove %d: %v", id, err)
				}
			}
			checkFitIndex(t, cf)
			checkBinCaches(t, cf)
			checkDigests(t, cf, "fuzz")
			if err := cf.Placement().Validate(); err != nil {
				t.Fatalf("after op %v: %v", in[op:op+2], err)
			}
		}
	})
}

// cubeFitFuzzSeeds builds one input per configuration shaped like the
// service: uniform(1..15) clients, and a departure of a random live
// tenant after about a quarter of the admissions.
func cubeFitFuzzSeeds() [][]byte {
	r := rng.New(2024)
	var out [][]byte
	for cfg := byte(0); cfg < 4; cfg++ {
		in := []byte{cfg}
		for step := 0; step < fuzzMaxOps; step++ {
			if step > 4 && r.Float64() < 0.25 {
				in = append(in, fuzzRemove, byte(r.Intn(256)))
				continue
			}
			in = append(in, fuzzPlace, byte(r.Intn(15)))
		}
		out = append(out, in)
	}
	return out
}
