package main

import "testing"

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nope", 1); err == nil {
		t.Fatal("want error for unknown experiment")
	}
}

func TestRunSingleExperiments(t *testing.T) {
	// fig2 and fig3 are the fast ones; they exercise the full job
	// dispatch path.
	for _, exp := range []string{"fig2", "fig3"} {
		if err := run(exp, 1); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}
