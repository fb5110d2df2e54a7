package churn

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
)

// overloadCases are the policy × crash cells of the overload golden test.
var overloadCases = []struct {
	name   string
	policy Policy
	crash  bool
}{
	{"greedy", PolicyGreedy, false},
	{"swap", PolicySwap, false},
	{"greedy-crash", PolicyGreedy, true},
	{"swap-crash", PolicySwap, true},
}

// overloadReport runs one overload cell: 256 arrivals at 0.3/s on 8 IB +
// 8 Ethernet nodes of two slots each, about twice the VM demand the
// fleet can hold, so a long FIFO queue forms and many arrivals wait out
// their deadline. The crash takes ib-n03 down from 120 s to 300 s.
func overloadReport(t *testing.T, policy Policy, crash bool) Report {
	t.Helper()
	r := newRig(8, 0)
	defer r.k.Close()
	opts := Options{
		Workload: Workload{Seed: 11, Jobs: 256, ArrivalRate: 0.3},
		Policy:   policy,
	}
	if crash {
		plan, err := faults.ParsePlan("node-crash@120s+180s:node=ib-n03")
		if err != nil {
			t.Fatalf("ParsePlan: %v", err)
		}
		opts.Faults = plan
	}
	eng, err := New(r.k, r.topo, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := eng.Run()
	if !eng.Done().Done() {
		t.Fatalf("engine did not finish: %+v", rep)
	}
	return rep
}

// Under overload the engine's reports match testdata/overload/<cell>.json
// byte for byte. The goldens were written by an engine that searched
// for room for every queued gang on every departure, so they pin the
// free-VM admission check to a full search.
func TestChurnOverloadGolden(t *testing.T) {
	for _, c := range overloadCases {
		t.Run(c.name, func(t *testing.T) {
			rep := overloadReport(t, c.policy, c.crash)
			if rep.Rejected == 0 {
				t.Fatalf("no arrival was rejected: the cell does not overload the fleet")
			}
			want, err := os.ReadFile(filepath.Join("testdata", "overload", c.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.JSON() + "\n"; got != string(want) {
				t.Errorf("report differs from golden:\n got %s\nwant %s", got, want)
			}
		})
	}
}
