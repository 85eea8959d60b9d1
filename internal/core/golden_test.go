package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"cubefit/internal/packing"
	"cubefit/internal/rng"
	"cubefit/internal/trace"
)

// goldenTenants is the number of admissions of every golden run.
const goldenTenants = 20000

// TestPlacementGolden pins CubeFit's placements across commits: the parity
// tests compare two engines of one commit, so a drift that moves both the
// same way is invisible to them. Each run is hashed over trace.Write and
// compared with a constant; a change that only touches how the state is
// stored must leave every hash as it is.
//
// The test runs on amd64 only: other architectures may fuse a multiply
// and an add into one instruction, which changes the last bits of the
// loads and levels the trace prints.
func TestPlacementGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("placement bytes are pinned on amd64; fused multiply-add elsewhere may change float bits")
	}
	for _, tc := range []struct {
		name  string
		gamma int
		seed  uint64
		next  func(*rng.RNG, packing.TenantID) packing.Tenant
		want  string
	}{
		{"service/gamma2", 2, 41, serviceTenant,
			"966a4157ac09594cf3ee7c716e2c5a48ec56d66df854dec6cfdc51ae854a8a26"},
		{"service/gamma3", 3, 42, serviceTenant,
			"694d15441a7c05e7c8600b2eb39d0f79d272fd9a7d93d2e225f5090bb86ee91b"},
		{"continuous/gamma2", 2, 43, continuousTenants(2),
			"2f2927984000a33ed755a62f3b899171e0b80cfbdb6e27eee1d6f5e77d2b38af"},
		{"continuous/gamma3", 3, 44, continuousTenants(3),
			"4d2a6bb0bfa0f011bc0f940400c21c826eab7c951d88b465713a3d7fd4c3d44d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cf, err := New(Config{Gamma: tc.gamma, K: 10})
			if err != nil {
				t.Fatal(err)
			}
			got := goldenHash(t, cf, tc.seed, tc.next)
			if got != tc.want {
				t.Errorf("placement hash %s, want %s", got, tc.want)
			}
		})
	}
}

// goldenHash drives cf through goldenTenants admissions drawn by next and
// returns the SHA-256 of the final placement's trace. Each admission is
// followed with probability 0.2 by the departure of a random live tenant,
// and a quarter of the admissions re-use a departed ID, so the storage of
// departed tenants is reused.
func goldenHash(t *testing.T, cf *CubeFit, seed uint64, next func(*rng.RNG, packing.TenantID) packing.Tenant) string {
	t.Helper()
	r := rng.New(seed)
	var live, departed []packing.TenantID
	nextID := packing.TenantID(1)
	for i := 0; i < goldenTenants; i++ {
		id := nextID
		if len(departed) > 0 && r.Float64() < 0.25 {
			k := int(r.Uint64() % uint64(len(departed)))
			id = departed[k]
			departed[k] = departed[len(departed)-1]
			departed = departed[:len(departed)-1]
		} else {
			nextID++
		}
		if err := cf.Place(next(r, id)); err != nil {
			t.Fatalf("place tenant %d: %v", id, err)
		}
		live = append(live, id)
		if r.Float64() < 0.2 {
			k := int(r.Uint64() % uint64(len(live)))
			victim := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := cf.Remove(victim); err != nil {
				t.Fatalf("remove tenant %d: %v", victim, err)
			}
			departed = append(departed, victim)
		}
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, cf.Placement()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}
