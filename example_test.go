package cubefit_test

import (
	"fmt"

	"cubefit"

	"cubefit/internal/core"
	"cubefit/internal/obs"
	"cubefit/internal/packing"
)

// ExampleNew shows the minimal admission flow: two replicas per tenant on
// two distinct servers.
func ExampleNew() {
	c, err := cubefit.New(cubefit.WithReplication(2), cubefit.WithClasses(10))
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := c.Place(cubefit.Tenant{ID: 1, Load: 0.3}); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("hosts:", c.Placement().TenantHosts(1))
	fmt.Println("robust:", c.Validate() == nil)
	// Output:
	// hosts: [0 1]
	// robust: true
}

// ExampleConsolidator_Remove demonstrates the departure extension: freed
// capacity is reflected immediately.
func ExampleConsolidator_Remove() {
	c, _ := cubefit.New()
	_ = c.Place(cubefit.Tenant{ID: 1, Load: 0.5})
	_ = c.Place(cubefit.Tenant{ID: 2, Load: 0.5})
	fmt.Printf("load before: %.2f\n", c.Placement().TotalLoad())
	_ = c.Remove(1)
	fmt.Printf("load after: %.2f\n", c.Placement().TotalLoad())
	// Output:
	// load before: 1.00
	// load after: 0.50
}

// ExampleWorstCaseFailures plans the most damaging single failure and
// confirms CubeFit's reserve absorbs it.
func ExampleWorstCaseFailures() {
	c, _ := cubefit.New(cubefit.WithReplication(2), cubefit.WithClasses(5))
	for i, load := range []float64{0.6, 0.3, 0.6, 0.78, 0.12, 0.36} {
		_ = c.Place(cubefit.Tenant{ID: cubefit.TenantID(i), Load: load, Clients: 10})
	}
	plan, _ := cubefit.WorstCaseFailures(c.Placement(), 1)
	overload := c.Placement().MaxPostFailureLoad(plan.Servers)
	fmt.Println("worst-case post-failure load within capacity:", overload <= 1)
	// Output:
	// worst-case post-failure load within capacity: true
}

// decisionLog is a flight recorder that keeps every event in memory.
type decisionLog []obs.Event

func (l *decisionLog) Record(e obs.Event) { *l = append(*l, e) }

// Example_decisionRecorder attaches a flight recorder to the engine and
// shows that a duplicate admission attempt is rejected without disturbing
// the original placement: the decision log still reconstructs the first
// admission and the tenant stays admitted.
func Example_decisionRecorder() {
	cf, err := core.New(core.Config{Gamma: 2, K: 10})
	if err != nil {
		fmt.Println(err)
		return
	}
	var log decisionLog
	cf.SetRecorder(&log)
	t := packing.Tenant{ID: 7, Load: 0.3}
	if err := cf.Place(t); err != nil {
		fmt.Println(err)
		return
	}
	// Duplicate attempt — rejected, tenant stays admitted.
	_ = cf.Place(t)
	d, ok := obs.DecisionFor(log, 7)
	_, admitted := cf.Placement().Tenant(7)
	fmt.Printf("ok=%v path=%q replicas=%d (tenant still admitted: %v)\n",
		ok, d.Path, len(d.Replicas), admitted)
	// Output:
	// ok=true path="rejected" replicas=0 (tenant still admitted: true)
}

// ExampleNewRFI contrasts the baseline: it places tenants but reserves
// only for a single failure.
func ExampleNewRFI() {
	a, _ := cubefit.NewRFI(2, 0) // μ defaults to 0.85
	_ = a.Place(cubefit.Tenant{ID: 1, Load: 0.5})
	fmt.Println("name:", a.Name())
	fmt.Println("servers:", a.Placement().NumUsedServers())
	// Output:
	// name: rfi(γ=2,μ=0.85)
	// servers: 2
}

// ExamplePlaceOffline shows batch placement with full lookahead.
func ExamplePlaceOffline() {
	tenants := []cubefit.Tenant{
		{ID: 1, Load: 0.6},
		{ID: 2, Load: 0.3},
		{ID: 3, Load: 0.1},
	}
	p, _ := cubefit.PlaceOffline(2, tenants)
	fmt.Println("tenants:", p.NumTenants())
	fmt.Println("robust:", p.Validate() == nil)
	// Output:
	// tenants: 3
	// robust: true
}
