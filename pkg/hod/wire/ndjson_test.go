package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/plant"
)

// referenceDecodeNDJSON is the NDJSON decoder before the hand-written
// reader: a bufio.Scanner over the body and json.Unmarshal per line. It
// defines the language DecodeNDJSON and AddNDJSON accept, and the
// Records they yield.
func referenceDecodeNDJSON(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("ndjson line %d: %w", line, err)
		}
		out = append(out, rec)
		if len(out) > MaxBatchRecords {
			return nil, fmt.Errorf("batch exceeds the %d-record cap", MaxBatchRecords)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ndjson: %w", err)
	}
	return out, nil
}

// checkNDJSONOracle is FuzzDecodeNDJSON's oracle: DecodeNDJSON and
// AddNDJSON accept and refuse a body as the reference does, the records
// are equal, and the frame AddNDJSON builds is the one Add builds from
// those records — also on a builder reused after a Reset.
func checkNDJSONOracle(t *testing.T, body []byte) {
	t.Helper()
	want, werr := referenceDecodeNDJSON(bytes.NewReader(body))
	got, gerr := DecodeNDJSON(bytes.NewReader(body))
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%.200q: DecodeNDJSON error %v, reference %v", body, gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%.200q:\n got %#v\nwant %#v", body, got, want)
	}
	ref := NewFrameBuilder()
	for _, rec := range want {
		ref.Add(rec)
	}
	b := NewFrameBuilder()
	for pass := 0; pass < 2; pass++ {
		b.Reset()
		err := b.AddNDJSON(bytes.NewReader(body))
		if (werr == nil) != (err == nil) {
			t.Fatalf("%.200q: AddNDJSON error %v, reference %v", body, err, werr)
		}
		if err == nil && !reflect.DeepEqual(b.Frame(), ref.Frame()) {
			t.Fatalf("%.200q: AddNDJSON frame\n%+v\nAdd frame\n%+v", body, b.Frame(), ref.Frame())
		}
	}
}

// ndjsonSeeds walk the corners of the language: folded keys, duplicate
// keys and nulls, escapes and broken UTF-8, Unicode padding, integer
// and float edges, deep unknown values, trailing data and the line cap.
func ndjsonSeeds() []string {
	return []string{
		"",
		"\n\n  \r\n\t\n",
		`{"machine":"line-0/m-0","job":"job-000","phase":"print","sensor":"temp-a","t":3,"value":21.5}` + "\n" +
			`{"env":true,"sensor":"hall-temp","t":4,"value":-0.25}` + "\r\n",
		// Keys in other cases and Unicode folds: ſ (U+017F) folds to s,
		// the Kelvin sign K (U+212A) to k, and the dotless ı to nothing.
		`{"MACHINE":"m","Job":"j","pHASE":"p","SENSOR":"s","T":1,"VALUE":2,"ENV":false}`,
		`{"ſensor":"long-s","phaſe":"p","\u017fensor":"escaped-long-s"}`,
		`{"sensor":"a","\u212aey":1,"mac\u212aine":"k","machıne":"dotless"}`,
		`{"sensor":"a","SENſOR":"b","sEnSoR":null}`,
		// Duplicate keys, null fields and a bare null line.
		`{"t":1,"t":2,"sensor":"a","sensor":"b","value":1,"value":null,"env":true,"env":null}`,
		`{"machine":null,"job":null,"phase":null,"sensor":null,"t":null,"value":null,"env":null}`,
		"null\n" + `{"sensor":"s","t":1}` + "\n null \n",
		// Escapes, surrogates, invalid UTF-8, Unicode white space.
		`{"machine":"m\u0031\n\t\"\\\/\b\f\r","job":"\u00e9\u65e5","phase":"<&>","sensor":"\u2028"}`,
		`{"job":"\ud800x","phase":"\udc00","sensor":"\ud83d\ude00\ud800\u0041"}`,
		"{\"job\":\"\xff\xfe\",\"sensor\":\"a\xc3\",\"machine\":\"\xed\xa0\x80\"}",
		"\u00a0{\"sensor\":\"nbsp\",\"t\":1}\u00a0\n\u0085\v\f{\"t\":2}\u3000\n",
		"\ufeff{\"t\":1}",
		// Integers and floats at their edges.
		`{"t":1.0}`, `{"t":1e3}`, `{"t":9223372036854775808}`, `{"t":9223372036854775807}`,
		`{"t":-9223372036854775808}`, `{"t":-9223372036854775809}`, `{"t":-0}`, `{"t":4294967299}`, `{"t":-}`,
		`{"value":1e400}`, `{"value":-1e400}`, `{"value":1e-400}`, `{"value":-0}`, `{"value":1E+2}`, `{"value":.5}`,
		`{"value":01}`, `{"value":0x10}`, `{"value":NaN}`,
		// Types json.Unmarshal refuses.
		`{"t":"1"}`, `{"sensor":1}`, `{"env":1}`, `{"env":"true"}`, `{"value":true}`, `{"machine":{}}`, `{"job":[]}`,
		`[]`, `"x"`, `1`, `true`, `nul`, `{`, `{"t":1,}`, `{"t" 1}`, `{'t':1}`, `{"t":1}{"t":2}`,
		// Unknown values, deep and shallow, and data after the object.
		`{"x":{"a":[1,{"b":null}],"c":"\u0041","d":true,"e":false},"y":-1.5e-3,"sensor":"s"}`,
		`{"x":[[[[[[[[{"y":[[[[[[[[null]]]]]]]]}]]]]]]]],"t":1}`,
		`{"t":1}x`, `{"t":1} {}`, `{"t":1}]`, `{"t":1} ` + "\x00",
	}
}

// TestDecodeNDJSONMatchesReference runs the oracle over the seeds, the
// line cap and a bench-shaped body; FuzzDecodeNDJSON generalises it.
// The nesting limit and the 1 MiB lines are not fuzz seeds: the engine
// stalls for many seconds minimising their mutants.
func TestDecodeNDJSONMatchesReference(t *testing.T) {
	deep := func(n int) string {
		return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"t":1}`
	}
	line := func(n int) string { return `{"sensor":"` + strings.Repeat("a", n-len(`{"sensor":""}`)) + `"}` }
	for _, body := range append(ndjsonSeeds(),
		deep(maxDepth-1), deep(maxDepth), // the object is the first level
		line(maxNDJSONLine-1)+"\n", line(maxNDJSONLine)+"\n", // the cap counts the newline
		line(maxNDJSONLine-2)+"\r\n", line(maxNDJSONLine-1)+"\r\n",
		"\n"+line(maxNDJSONLine-1), line(maxNDJSONLine), // and a last line without one
	) {
		checkNDJSONOracle(t, []byte(body))
	}
	body, err := EncodeNDJSON(benchRecords(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	checkNDJSONOracle(t, body)
}

// FuzzDecodeNDJSON: on every body, DecodeNDJSON and AddNDJSON agree
// with referenceDecodeNDJSON (see checkNDJSONOracle).
func FuzzDecodeNDJSON(f *testing.F) {
	for _, body := range ndjsonSeeds() {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkNDJSONOracle(t, body) })
}

// TestNDJSONErrorNamesLineKeyAndOffset: a refused body names the line,
// the key and the byte offset of the bad value, in the project's words
// rather than encoding/json's Go type names.
func TestNDJSONErrorNamesLineKeyAndOffset(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{"{\"sensor\":\"s\",\"t\":1}\n\u00a0 {\"sensor\":\"s\",\"t\":\"x\"}", `ndjson line 2: key "t": want an integer at offset 21`},
		{`{"t":1.5}`, `ndjson line 1: key "t": want an integer at offset 5`},
		{`{"value":1e400}`, `ndjson line 1: key "value": number out of range at offset 9`},
		{`{"x":[1,}`, `ndjson line 1: key "x": want a number at offset 8`},
		{`{"\u0078":[1,"\n"x]}`, `ndjson line 1: key "x": want ',' or ']' at offset 17`},
		{`{"t":1}x`, `ndjson line 1: data after the record at offset 7`},
	} {
		_, err := DecodeNDJSON(strings.NewReader(tc.body))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%q: error %v, want %q", tc.body, err, tc.want)
		}
		if err := NewFrameBuilder().AddNDJSON(strings.NewReader(tc.body)); err == nil || err.Error() != tc.want {
			t.Errorf("%q: AddNDJSON error %v, want %q", tc.body, err, tc.want)
		}
	}
}

// TestEncodeNDJSONMatchesEncoder: EncodeNDJSON writes json.Encoder's
// bytes for random and hostile records, and refuses a non-finite value
// with encoding/json's error.
func TestEncodeNDJSONMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	str := func() string {
		if rng.Intn(4) == 0 {
			return ""
		}
		return trickyStrings[rng.Intn(len(trickyStrings))]
	}
	for i := 0; i < 500; i++ {
		recs := make([]Record, rng.Intn(5))
		for j := range recs {
			v := trickyFloats[rng.Intn(len(trickyFloats))]
			if rng.Intn(2) == 0 {
				v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
			}
			recs[j] = Record{
				Machine: str(), Job: str(), Phase: str(), Sensor: str(),
				T: int(rng.Int63()) >> rng.Intn(64) * (1 - 2*rng.Intn(2)), Value: v, Env: rng.Intn(3) == 0,
			}
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		got, err := EncodeNDJSON(recs)
		if err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("case %d (%v):\n got %s\nwant %s", i, err, got, want.Bytes())
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		recs := []Record{{Sensor: "s", Value: 1}, {Sensor: "s", Value: bad}}
		werr := json.NewEncoder(io.Discard).Encode(recs[1])
		got, err := EncodeNDJSON(recs)
		var uv *json.UnsupportedValueError
		if werr == nil || err == nil || err.Error() != werr.Error() || !errors.As(err, &uv) || got != nil {
			t.Fatalf("%v: got %q, %v; json.Encoder: %v", bad, got, err, werr)
		}
	}
}

// benchRecords returns the first n records of a bench-shaped plant in
// trace order (machine, job, phase, sensor, t), as the bulk workloads
// of the serving benchmark send them.
func benchRecords(tb testing.TB, n int) []Record {
	tb.Helper()
	p, err := plant.Simulate(plant.Config{
		Seed: 1, Lines: 1, MachinesPerLine: 1, JobsPerMachine: 1 + n/1600, PhaseSamples: 80,
		FaultRate: 0.3, MeasurementErrorRate: 0.3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var out []Record
	for _, m := range p.Machines() {
		for _, job := range m.Jobs {
			for _, ph := range job.Phases {
				for _, dim := range ph.Sensors.Dims {
					for t, v := range dim.Values {
						out = append(out, Record{Machine: m.ID, Job: job.ID, Phase: ph.Name, Sensor: dim.Name, T: t, Value: v})
					}
				}
			}
		}
	}
	return out[:n]
}

// TestAddNDJSONAllocsFlat: a warm builder reads a 2 000-record body
// with as many allocations as a 10-record body over the same names —
// the per-record path allocates nothing.
func TestAddNDJSONAllocsFlat(t *testing.T) {
	names := benchRecords(t, 10)
	recs := make([]Record, 2000)
	for i := range recs {
		recs[i] = names[i%len(names)]
		recs[i].T = i
	}
	b := NewFrameBuilder()
	var rd bytes.Reader
	allocs := func(body []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			b.Reset()
			rd.Reset(body)
			if err := b.AddNDJSON(&rd); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, err := EncodeNDJSON(recs[:10])
	if err != nil {
		t.Fatal(err)
	}
	large, err := EncodeNDJSON(recs)
	if err != nil {
		t.Fatal(err)
	}
	if a10, a2000 := allocs(small), allocs(large); a10 != a2000 {
		t.Fatalf("warm AddNDJSON: %v allocs for 10 records, %v for 2 000", a10, a2000)
	}
}

// BenchmarkNDJSONDecode: one bench-shaped 2 000-record body through
// AddNDJSON (the server's door), DecodeNDJSON and the reference
// decoder, in ns and allocations per record.
func BenchmarkNDJSONDecode(b *testing.B) {
	recs := benchRecords(b, 2000)
	body, err := EncodeNDJSON(recs)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, decode func(io.Reader) error) {
		var rd bytes.Reader
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			if err := decode(&rd); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		n := float64(b.N * len(recs))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/rec")
		b.ReportMetric(float64(ms.Mallocs-before)/n, "allocs/rec")
	}
	b.Run("AddNDJSON", func(b *testing.B) {
		fb := NewFrameBuilder()
		run(b, func(r io.Reader) error {
			fb.Reset()
			return fb.AddNDJSON(r)
		})
	})
	b.Run("DecodeNDJSON", func(b *testing.B) {
		run(b, func(r io.Reader) error {
			_, err := DecodeNDJSON(r)
			return err
		})
	})
	b.Run("reference", func(b *testing.B) {
		run(b, func(r io.Reader) error {
			_, err := referenceDecodeNDJSON(r)
			return err
		})
	})
}
