package api

import (
	"io"
	"testing"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/workload"
)

// placerFleet is the tenant count BenchmarkPlacerAdmit's fleet starts at.
const placerFleet = 100000

// BenchmarkPlacerAdmit times the placer's commit path per admission: jobs
// of 64 tenants go through placeJobs — engine placement with the decision
// recorder attached, the events' delivery, the headroom re-audit and the
// log's group commit — on a fleet grown to 100k tenants before the timer
// starts, with the log on a discarding writer and span tracing off. An op
// is one admission. The timed admissions grow the fleet, so compare runs
// at the same fixed -benchtime count.
func BenchmarkPlacerAdmit(b *testing.B) {
	c, src := benchFleet(b)
	jobs := make([]*admitJob, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(64, b.N-done)
		job := &admitJob{items: make([]admitItem, n)}
		for i := range job.items {
			job.items[i].tenant = src.Next()
		}
		jobs[0] = job
		c.placeJobs(jobs)
		for i := range job.items {
			if job.items[i].status != 201 {
				b.Fatalf("admission %d: status %d (%s)", done+i, job.items[i].status, job.items[i].err)
			}
		}
		done += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/admission")
}

// BenchmarkHealthTick times one health sample-evaluate cycle, as the
// sampler loop runs it every interval, on the same 100k-tenant fleet: the
// gauges computed when read (process, log, and the headroom summary over
// every server), the registry scrape and the rule evaluation. An op is
// one tick.
func BenchmarkHealthTick(b *testing.B) {
	c, _ := benchFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.HealthTick()
	}
}

// benchFleet grows a CubeFit fleet to placerFleet uniform(1..15)-client
// tenants and serves it from a controller whose log discards its bytes,
// with span tracing off. It returns the controller and the tenant source,
// positioned after the fleet.
func benchFleet(b *testing.B) (*Controller, *workload.ClientSource) {
	b.Helper()
	cf, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	dist, err := workload.NewUniform(1, 15)
	if err != nil {
		b.Fatal(err)
	}
	src, err := workload.NewClientSource(workload.DefaultLoadModel(), dist, 7)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < placerFleet; i++ {
		if err := cf.Place(src.Next()); err != nil {
			b.Fatal(err)
		}
	}
	c, err := NewController(cf, workload.DefaultLoadModel(),
		WithWAL(obs.NewWAL(io.Discard)), WithoutSpanTracing())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := c.Close(); err != nil {
			b.Error(err)
		}
	})
	return c, src
}
