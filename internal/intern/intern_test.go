package intern

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// The serving layer indexes flat slices with these ids (roll-up leaves
// by phase*nSensors+sensor, trackers by sensor, stores by machine), so
// "dense, in argument order" is a layout contract, pinned here where
// the ids are assigned.

func TestTableIDsDenseInArgumentOrder(t *testing.T) {
	names := []string{"print", "cool", "inspect"}
	tab := New(names)
	if tab.Len() != len(names) || !reflect.DeepEqual(tab.Names(), names) {
		t.Fatalf("Len %d Names %v, want the %d arguments", tab.Len(), tab.Names(), len(names))
	}
	for want, name := range names {
		id, ok := tab.ID(name)
		if !ok || int(id) != want || tab.Name(id) != name {
			t.Fatalf("%q: id %d (ok=%v) naming %q, want id %d round-tripping", name, id, ok, tab.Name(id), want)
		}
	}
	if id, ok := tab.ID("warm-up"); ok {
		t.Fatalf("a name never interned resolved to %d", id)
	}
}

func TestDynTableInternsDenseInFirstSightOrder(t *testing.T) {
	tab := NewDyn(nil)
	sight := []string{"job-b", "job-a", "job-b", "job-c", "job-a"}
	want := []int32{0, 1, 0, 2, 1}
	for i, name := range sight {
		if id := tab.Intern(name); id != want[i] {
			t.Fatalf("Intern(%q) at sight %d = %d, want %d", name, i, id, want[i])
		}
	}
	if tab.Len() != 3 || !reflect.DeepEqual(tab.Names(), []string{"job-b", "job-a", "job-c"}) {
		t.Fatalf("Len %d Names %v after three distinct names", tab.Len(), tab.Names())
	}
	if _, ok := tab.ID("job-d"); ok || tab.Len() != 3 {
		t.Fatal("ID interned a name it was only asked to resolve")
	}

	// The durable forms store Names(); NewDyn must reproduce the ids.
	again := NewDyn(tab.Names())
	for id, name := range tab.Names() {
		if got, ok := again.ID(name); !ok || int(got) != id || again.Name(got) != name {
			t.Fatalf("NewDyn(Names()): %q is id %d (ok=%v), want %d", name, got, ok, id)
		}
	}
	if next := again.Intern("job-d"); next != 3 {
		t.Fatalf("first new name after NewDyn got id %d, want 3", next)
	}
}

// TestDynTableConcurrentIntern: shard workers intern overlapping job
// names at once (run under -race). Whatever order they land in, every
// name gets exactly one id and the ids are dense.
func TestDynTableConcurrentIntern(t *testing.T) {
	const workers, names = 8, 64
	tab := NewDyn(nil)
	got := make([][]int32, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]int32, names)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range names {
				// Each worker starts elsewhere in the same name set.
				n := (i + w*names/workers) % names
				got[w][n] = tab.Intern(fmt.Sprintf("job-%d", n))
			}
		}()
	}
	wg.Wait()
	if tab.Len() != names {
		t.Fatalf("%d ids for %d distinct names", tab.Len(), names)
	}
	for n := range names {
		id := got[0][n]
		if id < 0 || int(id) >= names || tab.Name(id) != fmt.Sprintf("job-%d", n) {
			t.Fatalf("job-%d interned as %d, which names %q", n, id, tab.Name(id))
		}
		for w := range got {
			if got[w][n] != id {
				t.Fatalf("job-%d is id %d to worker 0 and %d to worker %d", n, id, got[w][n], w)
			}
		}
	}
}
