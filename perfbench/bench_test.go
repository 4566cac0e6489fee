package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The harness self-test: a tiny-fixture pass of every workload, traced
// and untraced, must answer every check and report exactly the metrics
// BENCHMARK.json names, with their units; and the checks must catch
// wrong answers. Run with `go test` in this directory; it builds the
// daemon from the enclosing checkout.

const tinyAuthors = 200

type spec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func repoRoot(t *testing.T) string {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func readSpec(t *testing.T) spec {
	data, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTinyPassOfEveryWorkload(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(s.Workloads), len(workloadNames))
	}
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{root: repoRoot(t), workload: w.Name, seed: 7, seconds: 1, trace: trace, authors: tinyAuthors, parts: 2}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestChecksCatchWrongAnswers seeds a tiny fixture, then sends each
// read kind with deliberately wrong expectations: every one must fail
// its check, as must the durability check against a wrong model.
func TestChecksCatchWrongAnswers(t *testing.T) {
	root := repoRoot(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "ontoaccessd")
	if err := buildDaemon(root, bin); err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(bin, filepath.Join(dir, "data"), filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.kill()
	f := newFixture(7, tinyAuthors)
	if err := seed(d.base, f); err != nil {
		t.Fatal(err)
	}

	// wrong is the fixture with every expected value changed.
	wrong := newFixture(7, tinyAuthors)
	for i := range wrong.authors {
		wrong.authors[i].first += "x"
		wrong.authors[i].team = wrong.authors[i].team%wrong.teams + 1
	}
	wrong.teamSize = make([]int, wrong.teams+1)
	for t := range wrong.teamSize {
		wrong.teamSize[t] = f.teamSize[t] + 1
	}
	wrong.yearCount = map[string]int{"1999": 1}
	wm := newModel(0, conns, tinyAuthors)
	for id := range wm.mbox {
		wm.mbox[id] = "mailto:wrong@example.org"
	}
	g := newGen(scanRead, wrong, wm, 7)
	c := newClient(d.base)
	defer c.close()
	for _, k := range []opKind{kPointJSON, kPointText, kTeamOf, kScanAll, kScanTeam, kGroupYear, kRangeTop, kReadBack} {
		o := g.op(k)
		status, body, err := c.send(&o)
		if _, fail := outcome(&o, status, body, err); fail == nil {
			t.Errorf("%s: a wrong expectation passed the check", kindNames[k])
		}
	}
	// ASK has one right answer; ask about a family name no author has.
	o := op{kind: kAsk, text: prologue + `ASK { ex:author1 foaf:family_name "nobody" . }`, check: g.op(kAsk).check}
	status, body, err := c.send(&o)
	if _, fail := outcome(&o, status, body, err); fail == nil {
		t.Error("ask: a false answer passed the check")
	}

	var right []*model
	for c := 0; c < conns; c++ {
		right = append(right, newModel(c, conns, tinyAuthors))
	}
	if err := verifyState(d, f, right); err != nil {
		t.Fatalf("durability check of the seeded state: %v", err)
	}
	if err := verifyState(d, f, append([]*model{wm}, right[1:]...)); err == nil {
		t.Error("durability check passed with wrong mailboxes")
	}
	right[0].newAuthors++
	if err := verifyState(d, f, right); err == nil {
		t.Error("durability check passed with a write the store never acknowledged")
	}
}
