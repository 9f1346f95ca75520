package catalog

import (
	"reflect"
	"strings"
	"testing"

	"sita"
	"sita/internal/core"
)

// TestPolicyTable checks the policy table through every consumer that
// reads it: the built policies' names, the catalog's names and
// spellings, sita.Predict and sita.BaselinePolicies.
func TestPolicyTable(t *testing.T) {
	wl, err := sita.LoadWorkload("psc-c90", 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"random", "round-robin", "shortest-queue", "lwl",
		"central-queue", "sita-e", "sita-u-opt", "sita-u-fair", "sita-u-rule"}
	if got := PolicyNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PolicyNames() = %v, want %v", got, want)
	}

	baselines := sita.BaselinePolicies(1)
	designless := 0
	for _, r := range core.Policies() {
		for _, hosts := range []int{2, 8} {
			p, d, err := Build(r.Key, 0.7, wl, hosts, 1)
			if err != nil {
				t.Fatalf("%s on %d hosts: %v", r.Key, hosts, err)
			}
			if p.Name() != r.Name {
				t.Errorf("%s on %d hosts builds %q, want display name %q", r.Key, hosts, p.Name(), r.Name)
			}
			if _, baseline := baselines[r.Name]; baseline != (d == nil) {
				t.Errorf("%s: in BaselinePolicies = %v, but Build returns Design %v", r.Key, baseline, d)
			}
			if hosts == 2 && d == nil {
				designless++
			}
		}

		for _, name := range append([]string{r.Key, r.Name}, r.Aliases...) {
			for _, spelling := range []string{name, strings.ToUpper(name), strings.ToLower(name)} {
				if c, err := CanonicalPolicy(spelling); err != nil || c != r.Key {
					t.Errorf("CanonicalPolicy(%q) = (%q, %v), want %q", spelling, c, err, r.Key)
				}
			}
		}

		_, err := sita.Predict(r.Name, 0.7, wl.Size, 2)
		if (err == nil) != (r.Predict != nil) {
			t.Errorf("Predict(%q) error %v, but the row has a closed form: %v", r.Name, err, r.Predict != nil)
		}
	}
	if len(baselines) != designless {
		t.Errorf("BaselinePolicies has %d policies, want the %d rows without a Design", len(baselines), designless)
	}
}
