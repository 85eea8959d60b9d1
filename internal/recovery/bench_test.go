package recovery

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
	"cubefit/internal/rng"
	"cubefit/internal/workload"
)

// BenchmarkRecoverFleet times recovery.FromFile — read, rebuild, verify —
// on the log of a fleet grown through the engine and the write-ahead log
// off the clock: uniform(1..15) clients through the default load model,
// γ=2, K=10, and a departure of a random live tenant after every tenth
// admission. log-MB reports the log's size.
func BenchmarkRecoverFleet(b *testing.B) {
	for _, tenants := range []int{10000, 250000} {
		b.Run("tenants"+strconv.Itoa(tenants), func(b *testing.B) {
			cfg := core.Config{Gamma: 2, K: 10}
			path := filepath.Join(b.TempDir(), "wal.jsonl")
			size := writeFleetLog(b, path, cfg, tenants)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := FromFile(path, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size)/1e6, "log-MB")
		})
	}
}

// writeFleetLog admits tenants through a fresh engine logging to path and
// returns the log's size.
func writeFleetLog(b *testing.B, path string, cfg core.Config, tenants int) int64 {
	b.Helper()
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	wal := obs.NewWAL(f)
	cf, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cf.SetRecorder(wal)
	model := workload.DefaultLoadModel()
	r := rng.New(1)
	live := make([]packing.TenantID, 0, tenants)
	for i := 0; i < tenants; i++ {
		clients := r.IntRange(1, 15)
		id := packing.TenantID(i)
		if err := cf.Place(packing.Tenant{ID: id, Load: model.Load(clients), Clients: clients}); err != nil {
			b.Fatal(err)
		}
		live = append(live, id)
		if i%10 == 9 {
			j := r.Intn(len(live))
			if err := cf.Remove(live[j]); err != nil {
				b.Fatal(err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if err := wal.Close(); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return info.Size()
}
