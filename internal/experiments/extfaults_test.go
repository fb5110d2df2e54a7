package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExtFaultMatrix pins the fault × phase matrix, the only experiment
// that runs cold-mode NFS-outage retries and live spare substitution:
// every row's rendered outcome, its orchestration event trail and its
// kernel event counts must match testdata/extfaults.golden byte for byte,
// and every row's MPI iteration counter must stay monotone.
func TestExtFaultMatrix(t *testing.T) {
	rows, err := ExtFaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(extFaultScenarios()) {
		t.Fatalf("%d rows for %d scenarios", len(rows), len(extFaultScenarios()))
	}
	var b strings.Builder
	b.WriteString(ExtFaultMatrixRender(rows).String())
	for _, r := range rows {
		if !r.Monotone {
			t.Errorf("%s: MPI iteration counter not monotone", r.Scenario)
		}
		fmt.Fprintf(&b, "== %s err=%v total=%d stats=%+v\n", r.Scenario, r.Err, int64(r.Total), r.stats)
		for _, e := range r.events {
			fmt.Fprintf(&b, "%d %s %q %q %q\n", int64(e.At), e.Kind, e.Phase, e.Subject, e.Detail)
		}
	}
	checkGoldenText(t, "extfaults.golden", b.String())
}

// checkGoldenText compares got with testdata/<name> line by line.
func checkGoldenText(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("differs from %s at line %d:\n got %s\nwant %s", name, i+1, g, w)
		}
	}
}
