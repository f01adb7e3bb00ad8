package scenario

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestShortMatrix is the CI soak matrix: every builtin scenario marked
// short runs twice, every invariant must pass, and both runs of a
// scenario must produce the same digest (the determinism gate). The
// long scenarios stay behind `hodctl soak`.
func TestShortMatrix(t *testing.T) {
	corpus, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	short := 0
	for _, cfg := range corpus {
		if !cfg.Short {
			continue
		}
		short++
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			r := &Runner{DataDir: t.TempDir(), Log: t.Logf}
			var digests []string
			for run := 0; run < 2; run++ {
				rr := *r
				rr.DataDir = t.TempDir()
				res, err := rr.Run(context.Background(), cfg)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				for _, c := range res.Checks {
					if !c.Pass {
						t.Errorf("run %d: check %s failed: %s", run, c.Name, c.Detail)
					}
				}
				if !res.Pass {
					buf, _ := json.MarshalIndent(res, "", "  ")
					t.Fatalf("run %d failed:\n%s", run, buf)
				}
				digests = append(digests, res.Digest)
			}
			if digests[0] != digests[1] {
				t.Fatalf("digest differs across same-seed runs: %s vs %s", digests[0], digests[1])
			}
		})
	}
	if short < 3 {
		t.Fatalf("only %d short scenarios in the builtin corpus, want >= 3", short)
	}
}

// TestBuiltinCorpusCoverage pins the corpus contract: every declared
// failure kind is exercised by at least one builtin scenario, so the
// matrix cannot silently lose coverage of an injection.
func TestBuiltinCorpusCoverage(t *testing.T) {
	corpus, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, cfg := range corpus {
		for _, f := range cfg.Failures {
			covered[f.Kind] = true
		}
	}
	for kind := range kindNeedsDurable {
		if !covered[kind] {
			t.Errorf("failure kind %q is not exercised by any builtin scenario", kind)
		}
	}
	if len(covered) < 8 {
		t.Fatalf("corpus covers %d distinct failure kinds, want >= 8", len(covered))
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // fragment of the expected error, "" = valid
	}{
		{"valid", `{"name":"x","seed":1,"plants":[{"id":"p"}]}`, ""},
		{"no name", `{"seed":1,"plants":[{"id":"p"}]}`, "needs a name"},
		{"no plants", `{"name":"x","seed":1}`, "at least one plant"},
		{"dup plant", `{"name":"x","plants":[{"id":"p"},{"id":"p"}]}`, "duplicate plant"},
		{"unknown kind", `{"name":"x","plants":[{"id":"p"}],"failures":[{"kind":"meteor"}]}`, `unknown kind "meteor"`},
		{"kill needs durable", `{"name":"x","plants":[{"id":"p"}],"failures":[{"kind":"kill","at":1}]}`, "needs \"durable\": true"},
		{"stall needs subscribe", `{"name":"x","plants":[{"id":"p"}],"failures":[{"kind":"slow_consumer","at":1}]}`, "needs \"subscribe\": true"},
		{"no kill under subscribe", `{"name":"x","durable":true,"subscribe":true,"plants":[{"id":"p"}],"failures":[{"kind":"kill","at":1}]}`, "not deterministic"},
		{"valid push", `{"name":"x","subscribe":true,"plants":[{"id":"p"}],"failures":[{"kind":"push_disconnect","at":1}]}`, ""},
		{"unknown plant", `{"name":"x","plants":[{"id":"p"}],"failures":[{"kind":"dropout","plant":"q"}]}`, `unknown plant "q"`},
		{"typo field", `{"name":"x","plants":[{"id":"p"}],"failures":[{"kind":"dropout","form":3}]}`, "unknown field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not contain %q", err, tc.want)
			}
		})
	}
}

// TestTransformWindows pins the trace-transform semantics dropout and
// clock_skew scenarios rely on.
func TestTransformWindows(t *testing.T) {
	cfg, err := Parse([]byte(`{
		"name": "w", "seed": 1, "plants": [{"id": "p"}],
		"failures": [
			{"kind": "dropout", "machine": "line-1/m1", "sensor": "temp-a", "from": 2, "to": 4},
			{"kind": "clock_skew", "from": 0, "to": 2, "skew": 10}
		]}`))
	if err != nil {
		t.Fatal(err)
	}
	traces, err := prepare(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	dropped, skewed := 0, 0
	for _, b := range traces[0].batch {
		for _, rec := range b {
			if rec.Machine == "line-1/m1" && rec.Sensor == "temp-a" && rec.T >= 2 && rec.T < 4 {
				dropped++
			}
			if rec.Env && rec.T >= 10 && rec.T < 12 {
				skewed++
			}
			if rec.Env && rec.T < 2 {
				t.Fatalf("env record at T=%d escaped the skew window", rec.T)
			}
		}
	}
	if dropped != 0 {
		t.Fatalf("%d records survived inside the dropout window", dropped)
	}
	if skewed == 0 {
		t.Fatal("no env records landed in the skewed window")
	}
}
