package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// trickyStrings covers every branch of encoding/json's string escaping:
// HTML characters, short and \u00XX control escapes, invalid UTF-8,
// U+2028/U+2029, multi-byte runes and U+FFFD itself.
var trickyStrings = []string{
	"", "line-1/m1", `q"uo\te`, "<a&b>", "\b\f\n\r\t", "\x00\x01\x1f\x7f",
	"\xff", "a\xc3", "\xed\xa0\x80", "\u2028\u2029", "é日本\U0001F600", "\ufffd", "/",
}

// trickyFloats covers both sides of encoding/json's 'f'/'e' switch
// (1e-6 and 1e21), its e-0N clean-up, signed zero, subnormals and the
// extremes.
var trickyFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.999999e-7, 1e-7, 1e20, 1e21, 999999999999999999999, 1e-9, 1.5e-10,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 5e-324, 123456789.123456789, 0.1, 1e100, 1e-100,
}

func randomCubeResponse(rng *rand.Rand) CubeResponse {
	str := func() string { return trickyStrings[rng.Intn(len(trickyStrings))] }
	strs := func() []string {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []string{}
		}
		out := make([]string, 1+rng.Intn(5))
		for i := range out {
			out[i] = str()
		}
		return out
	}
	flt := func() float64 {
		if rng.Intn(2) == 0 {
			return trickyFloats[rng.Intn(len(trickyFloats))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	r := CubeResponse{Plant: str(), Op: str(), Dims: strs(), Where: strs(), Members: strs(), TotalCells: rng.Intn(1 << 20)}
	if rng.Intn(3) > 0 {
		r.Cells = make([]CubeCell, rng.Intn(4))
		for i := range r.Cells {
			r.Cells[i] = CubeCell{Coord: strs(), Count: rng.Intn(1000) - 10, Sum: flt(), Mean: flt(), Min: flt(), Max: flt()}
		}
	}
	return r
}

// TestAppendCubeResponseMatchesMarshal: the appender's bytes are
// json.Marshal's, and it refuses a non-finite measure where Marshal
// does, with the same error, leaving dst as it was.
func TestAppendCubeResponseMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prefix := []byte("prefix")
	for i := 0; i < 3000; i++ {
		r := randomCubeResponse(rng)
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendCubeResponse(append([]byte(nil), prefix...), &r)
		if err != nil || !bytes.Equal(got, append(append([]byte(nil), prefix...), want...)) {
			t.Fatalf("case %d (%v):\n got %s\nwant prefix%s", i, err, got, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := CubeResponse{Op: "slice", Cells: []CubeCell{{Coord: []string{"x"}, Count: 1, Sum: 1, Mean: 1, Min: 1, Max: bad}}}
		_, werr := json.Marshal(r)
		got, err := AppendCubeResponse(prefix, &r)
		var uv *json.UnsupportedValueError
		if werr == nil || err == nil || err.Error() != werr.Error() || !errors.As(err, &uv) || !bytes.Equal(got, prefix) {
			t.Fatalf("%v: got %q, %v; json.Marshal: %v", bad, got, err, werr)
		}
	}
}

// TestDecodeCubeResponseMatchesUnmarshal walks the corners of
// json.Unmarshal's behaviour the decoder must share; FuzzCubeResponse
// generalises it.
func TestDecodeCubeResponseMatchesUnmarshal(t *testing.T) {
	for _, doc := range []string{
		`{"plant":"p1","op":"slice","dims":["a"],"cells":[{"coord":["x"],"count":2,"sum":3,"mean":1.5,"min":1,"max":2}],"total_cells":7}`,
		` { "total_cells" : 1 , "op" : "rollup" } `,
		`null`, ` null `, `{}`, `{"dims":null}`, `{"dims":[]}`, `{"cells":[]}`, `{"cells":null}`, `{"cells":[null]}`,
		`{"plant":null,"plant":"x","plant":null}`, `{"count":1}`, `{"unknown":{"a":[1,{"b":null}],"c":"\u0041"}}`,
		`{"dims":["a","b","c"],"dims":["x"],"dims":["y",null,null]}`,
		`{"cells":[{"count":1,"sum":2},{"coord":["a","b"]}],"cells":[{"count":5}],"cells":[{},{"max":1}]}`,
		`{"cells":[{"coord":["a","b","c"],"coord":["z"],"coord":["q",null,null]}]}`,
		`{"pl\u0061nt":"\ud83d\ude00\ud800\udc00x\ud800\u0041\udc00","op":"\"\\\/\b\f\n\r\t"}`,
		`{"op":"` + "\xff\xed\xa0\x80é" + `"}`,
		`{"total_cells":-0,"cells":[{"sum":-0,"min":1e-400,"max":1E+2,"mean":-1.5e-3}]}`,
		// Refused by both.
		``, ` `, `[]`, `"x"`, `1`, `true`, `{"op":1}`, `{"dims":"a"}`, `{"dims":[1]}`, `{"cells":[1]}`,
		`{"total_cells":1.5}`, `{"total_cells":1e2}`, `{"total_cells":99999999999999999999}`, `{"cells":[{"sum":1e400}]}`,
		`{"cells":[{"sum":"1"}]}`, `{"op":"a"`, `{"op":"a",}`, `{"op":"a"}x`, `{"op":"a"}{}`, `{"op":'a'}`,
		`{"op":"\x01"}`, `{"op":"\q"}`, `{"op":"\u12G4"}`, `{"op":"\ud800\u12G4"}`, `{"x":01}`, `{"x":-}`, `{"x":1.}`,
		`{"x":1e}`, `{"x":nul}`, `{"x":[1,]}`, `{"x":{"a"}}`, `{"op":"a" "dims":[]}`, `{"x":tru}`, `{"x":"unterminated}`,
		`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	} {
		checkDecodeOracle(t, []byte(doc))
	}
}

// checkDecodeOracle is the decode oracle of FuzzCubeResponse.
func checkDecodeOracle(t *testing.T, data []byte) {
	t.Helper()
	if foldedKeyOnly(data) {
		return
	}
	var want CubeResponse
	werr := json.Unmarshal(data, &want)
	got, gerr := DecodeCubeResponse(data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%q: DecodeCubeResponse error %v, json.Unmarshal %v", data, gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\n got %#v\nwant %#v", data, got, want)
	}
}

// cubeKeys are the JSON names of CubeResponse's and CubeCell's fields.
var cubeKeys = []string{"plant", "op", "dims", "where", "members", "cells", "total_cells", "coord", "count", "sum", "mean", "min", "max"}

// foldedKeyOnly reports whether a valid document holds a string that
// matches a field name only case-insensitively — encoding/json decodes
// such a key into the field, DecodeCubeResponse skips it, by design.
func foldedKeyOnly(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if s, ok := tok.(string); ok {
			for _, k := range cubeKeys {
				if s != k && strings.EqualFold(s, k) {
					return true
				}
			}
		}
	}
}

// FuzzCubeResponse: on every input DecodeCubeResponse and
// json.Unmarshal both fail, or both succeed with deep-equal values; and
// every decoded value encodes through AppendCubeResponse to
// json.Marshal's bytes.
func FuzzCubeResponse(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		r := randomCubeResponse(rng)
		body, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, doc := range []string{
		`null`, `{"dims":["a","b"],"dims":[null]}`, `{"cells":[{"coord":["a"]}],"cells":[{}]}`,
		`{"op":"\ud800\udc00\ud800"}`, `{"x":[{"y":[null,true,false,-0.5e+3]}]}`, ` {"total_cells" :0} `,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeOracle(t, data)
		r, err := DecodeCubeResponse(data)
		if err != nil {
			return
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("json.Marshal of a decoded body: %v", err)
		}
		if got, err := AppendCubeResponse(nil, &r); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%q: AppendCubeResponse %q (%v), json.Marshal %q", data, got, err, want)
		}
	})
}

// FuzzCubeQueryParams: on every query string whose parameters decode,
// encoding them and decoding the encoding — through a real URL parse —
// gives the same parameters back.
func FuzzCubeQueryParams(f *testing.F) {
	for _, q := range []string{
		"", "op=slice", "op=rollup&keep=line,sensor", "op=rollup&keep=,", "op=drilldown&dim=machine&where=line%3Dl-1",
		"where=machine%3Dl%2Fm&where=phase%3Dp%3Dq", "op=members&dim=job&op=slice", "keep=a,,b&dim=%00%FF",
		"where=a%3D%26%3F%20x", "where=a", "where=a%3Db&where=a%3Dc",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		vals, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		p, err := DecodeCubeQueryParams(vals)
		if err != nil {
			return
		}
		again, err := url.ParseQuery(p.Encode().Encode())
		if err != nil {
			t.Fatalf("%+v: encoding does not parse: %v", p, err)
		}
		got, err := DecodeCubeQueryParams(again)
		if err != nil || !reflect.DeepEqual(got, p) {
			t.Fatalf("%q: %+v came back as %+v (%v)", raw, p, got, err)
		}
	})
}

// benchSlice is a machine slice of the serving cube's bench shape: 96
// jobs × 5 phases × 4 sensors = 1 920 cells on one line and machine.
func benchSlice() CubeResponse {
	rng := rand.New(rand.NewSource(1))
	r := CubeResponse{Plant: "plant-0", Op: CubeOpSlice, Dims: CubeDims(), Where: []string{"machine=line-0/m-0"}, TotalCells: 11520}
	for j := 0; j < 96; j++ {
		for _, ph := range []string{"cool", "heat", "inspect", "print", "recoat"} {
			for _, s := range []string{"power", "temp-a", "temp-b", "vibration"} {
				n := 20 + rng.Intn(20)
				sum := 0.0
				lo, hi := math.Inf(1), math.Inf(-1)
				for k := 0; k < n; k++ {
					v := 20 + rng.NormFloat64()*3
					sum += v
					lo, hi = min(lo, v), max(hi, v)
				}
				r.Cells = append(r.Cells, CubeCell{
					Coord: []string{"line-0", "line-0/m-0", fmt.Sprintf("job-%03d", j), ph, s},
					Count: n, Sum: sum, Mean: sum / float64(n), Min: lo, Max: hi,
				})
			}
		}
	}
	return r
}

// BenchmarkCubeResponseCodec: one machine slice through the appender
// and the decoder, beside encoding/json on the same value.
func BenchmarkCubeResponseCodec(b *testing.B) {
	r := benchSlice()
	body, err := json.Marshal(r)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("append", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			if buf, err = AppendCubeResponse(buf[:0], &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeCubeResponse(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json.Marshal", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json.Unmarshal", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out CubeResponse
			if err := json.Unmarshal(body, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
