package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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

// FuzzCubeResponse: every body json.Unmarshal accepts into a
// CubeResponse encodes back through AppendCubeResponse to
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
		var r CubeResponse
		if json.Unmarshal(data, &r) != nil {
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

// cubeCorners are answers at the edges of the binary layout: null
// against empty lists, ragged and null coordinates, a coordinate
// position no other cell has, and strings that are not UTF-8.
var cubeCorners = []CubeResponse{
	{},
	{Dims: []string{}, Where: []string{}, Members: []string{}, Cells: []CubeCell{}},
	{Plant: "p", Op: CubeOpMembers, Dims: CubeDims(), Members: []string{"a", "\xff", ""}, TotalCells: -1},
	{Cells: []CubeCell{{}, {Coord: []string{}}, {Coord: []string{"a"}, Count: math.MinInt64}}},
	{Cells: []CubeCell{{Coord: []string{}}, {Coord: []string{}, Count: math.MaxInt64, Sum: math.Copysign(0, -1)}}},
	{Dims: []string{"x", "y"}, Cells: []CubeCell{
		{Coord: []string{"a", "b"}}, {Coord: []string{"a", "\xed\xa0\x80"}}, {Coord: []string{"\xff", "b"}}, {Coord: []string{"\xfe", "b"}},
	}},
	{Cells: []CubeCell{{Coord: []string{"a", "b", "c"}}, {Coord: []string{"a"}}, {Coord: nil}, {Coord: []string{"d", "e", "f", "g"}}}},
}

// checkCubeBinary is the oracle of the binary body: an answer decodes
// to what json.Unmarshal gives for its JSON body, float bits included,
// and a body cut short or with one bit flipped is refused.
func checkCubeBinary(t *testing.T, r CubeResponse, cut, flip int) {
	t.Helper()
	js, jerr := AppendCubeResponse(nil, &r)
	body, berr := AppendCubeBinary([]byte("prefix"), &r)
	if jerr != nil || berr != nil {
		if jerr == nil || berr == nil || berr.Error() != jerr.Error() || string(body) != "prefix" {
			t.Fatalf("%+v: AppendCubeBinary %q (%v), AppendCubeResponse %v", r, body, berr, jerr)
		}
		return
	}
	body = body[len("prefix"):]
	var want CubeResponse
	if err := json.Unmarshal(js, &want); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCubeBinary(body)
	if err != nil || !sameCube(got, want) {
		t.Fatalf("%+v: binary decode %#v (%v), json.Unmarshal %#v", r, got, err, want)
	}
	cut %= len(body)
	if _, err := DecodeCubeBinary(body[:cut]); !errors.Is(err, ErrCubeBody) {
		t.Fatalf("%+v: body cut to %d of %d bytes: %v", r, cut, len(body), err)
	}
	flipped := append([]byte(nil), body...)
	flipped[flip/8%len(body)] ^= 1 << (flip % 8)
	if _, err := DecodeCubeBinary(flipped); !errors.Is(err, ErrCubeBody) {
		t.Fatalf("%+v: bit %d flipped: %v", r, flip%(8*len(body)), err)
	}
}

// sameCube is reflect.DeepEqual with the measures compared by their
// bits, so that -0 and 0 differ.
func sameCube(a, b CubeResponse) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	for i := range a.Cells {
		x, y := &a.Cells[i], &b.Cells[i]
		for _, p := range [...][2]float64{{x.Sum, y.Sum}, {x.Mean, y.Mean}, {x.Min, y.Min}, {x.Max, y.Max}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				return false
			}
		}
	}
	return true
}

// TestCubeBinaryMatchesUnmarshal runs the binary oracle over the corner
// answers, random ones and non-finite measures; FuzzCubeBinary
// generalises it.
func TestCubeBinaryMatchesUnmarshal(t *testing.T) {
	for i, r := range cubeCorners {
		checkCubeBinary(t, r, i*7, i*131)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		checkCubeBinary(t, randomCubeResponse(rng), rng.Int(), rng.Int())
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkCubeBinary(t, CubeResponse{Cells: []CubeCell{{Coord: []string{"x"}, Count: 1, Sum: 1, Mean: bad}}}, 0, 0)
	}
}

// withCRC returns body with its trailing checksum recomputed, so that
// a test reaches the structural checks behind it.
func withCRC(body []byte) []byte {
	out := append([]byte(nil), body...)
	if n := len(out) - 4; n >= 0 {
		binary.LittleEndian.PutUint32(out[n:], crc32.Checksum(out[:n], cubeCRC))
	}
	return out
}

// FuzzCubeBinary: any body whose checksum holds either decodes or is
// refused with ErrCubeBody; every answer it decodes to passes the
// oracle of checkCubeBinary.
func FuzzCubeBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	seeds := append([]CubeResponse(nil), cubeCorners...)
	for i := 0; i < 8; i++ {
		seeds = append(seeds, randomCubeResponse(rng))
	}
	for i, r := range seeds {
		body, err := AppendCubeBinary(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, uint(i*13), uint(i*977))
	}
	f.Fuzz(func(t *testing.T, data []byte, cut, flip uint) {
		r, err := DecodeCubeBinary(withCRC(data))
		if err != nil {
			if !errors.Is(err, ErrCubeBody) {
				t.Fatalf("%q: untyped error %v", data, err)
			}
			return
		}
		again, err := AppendCubeBinary(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := DecodeCubeBinary(again); err != nil || !sameCube(back, r) {
			t.Fatalf("%q: decoded %#v, re-encoded and decoded %#v (%v)", data, r, back, err)
		}
		checkCubeBinary(t, r, int(cut>>1), int(flip>>1))
	})
}

// TestCubeBinaryForgedCountsWithinInput: a short body whose header
// claims 2³²−1 list entries, dictionaries, members, cells or string
// bytes is refused before anything is allocated by the claim.
func TestCubeBinaryForgedCountsWithinInput(t *testing.T) {
	const huge = math.MaxUint32 - 1
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	head := func(parts ...[]byte) []byte {
		b := append([]byte(cubeMagic), cubeVersion)
		for _, p := range parts {
			b = append(b, p...)
		}
		return append(b, bytes.Repeat([]byte{0}, 64)...) // room for a few cells, and the checksum
	}
	zero, total := u32(0), make([]byte, 8)
	for name, body := range map[string][]byte{
		"plant length":      head(u32(huge)),
		"dims count":        head(zero, zero, u32(huge)),
		"where count":       head(zero, zero, u32(nilList), u32(huge)),
		"width":             head(zero, zero, zero, zero, zero, total, u32(huge)),
		"dictionary count":  head(zero, zero, zero, zero, zero, total, u32(1), u32(huge)),
		"cells":             head(zero, zero, zero, zero, zero, total, zero, u32(huge)),
		"coordinate length": head(zero, zero, zero, zero, zero, total, u32(1), zero, u32(1), u32(huge)),
	} {
		body = withCRC(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeCubeBinary(body)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCubeBody) {
			t.Fatalf("%s: %v", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(body)) {
			t.Fatalf("%s: a %d-byte body allocated %d bytes before it was refused (%v)", name, len(body), alloc, err)
		}
	}
}

// TestCubeBinaryGolden pins the binary body of one fixed answer in
// testdata/cube_binary.hex, a hex dump, so that a layout change shows
// as a diff; -update-golden rewrites it. The pinned bytes must decode
// to the answer.
func TestCubeBinaryGolden(t *testing.T) {
	r := CubeResponse{
		Plant: "p1", Op: CubeOpDrilldown, Dims: []string{"line", "machine"}, Where: []string{"line=line-1"},
		Cells: []CubeCell{
			{Coord: []string{"line-1", "line-1/m1"}, Count: 2, Sum: 6, Mean: 3, Min: 2, Max: 4},
			{Coord: []string{"line-1", "line-1/m2"}, Count: 1, Sum: -0.5, Mean: -0.5, Min: -0.5, Max: -0.5},
		},
		TotalCells: 12,
	}
	body, err := AppendCubeBinary(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "cube_binary.hex")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(hex.Dump(body)), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	pinned, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./pkg/hod/wire -update-golden` once): %v", err)
	}
	if got := hex.Dump(body); got != string(pinned) {
		t.Fatalf("binary cube body drifted from the pinned layout\n got:\n%s\nwant:\n%s", got, pinned)
	}
	var raw []byte
	for _, line := range strings.SplitAfter(strings.TrimSpace(string(pinned)), "\n") {
		if len(line) > 10 {
			b, err := hex.DecodeString(strings.ReplaceAll(strings.TrimSpace(line[10:min(len(line), 58)]), " ", ""))
			if err != nil {
				t.Fatal(err)
			}
			raw = append(raw, b...)
		}
	}
	if got, err := DecodeCubeBinary(raw); err != nil || !sameCube(got, r) {
		t.Fatalf("pinned body decodes to %+v (%v)", got, err)
	}
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

// BenchmarkCubeResponseCodec: one machine slice through the JSON
// appender, the binary pair and encoding/json. The binary rows'
// MB/s are of the binary body (116 KB against the JSON body's 330 KB).
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
	bin, err := AppendCubeBinary(nil, &r)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("binary-append", func(b *testing.B) {
		b.SetBytes(int64(len(bin)))
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			if buf, err = AppendCubeBinary(buf[:0], &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary-decode", func(b *testing.B) {
		b.SetBytes(int64(len(bin)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeCubeBinary(bin); err != nil {
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
