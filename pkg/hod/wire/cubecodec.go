package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"
	"unicode/utf8"
)

// The cube body is the largest and most frequent response of the v1
// API: a machine slice of the serving cube is a couple of thousand
// cells. It has two encodings, both written here. The JSON one, for
// curl and any client that does not ask for more, is json.Marshal's
// bytes without encoding/json's reflection (AppendCubeResponse). The
// binary one, which hod.Client asks for and reads, carries the floats
// as their bits, so neither side formats or parses a number
// (AppendCubeBinary, DecodeCubeBinary). Its decoder is held to
// json.Unmarshal of the JSON body of the same answer.

// AppendCubeResponse appends the JSON encoding of r to dst. The bytes
// are json.Marshal's (field order, omitempty, float formatting, HTML-
// safe string escaping), and the error is too: a NaN or infinite
// measure is refused with a *json.UnsupportedValueError, and dst is
// returned as it came.
func AppendCubeResponse(dst []byte, r *CubeResponse) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"plant":`...)
	dst = appendString(dst, r.Plant)
	dst = append(dst, `,"op":`...)
	dst = appendString(dst, r.Op)
	dst = append(dst, `,"dims":`...)
	dst = appendStrings(dst, r.Dims)
	if len(r.Where) > 0 {
		dst = append(dst, `,"where":`...)
		dst = appendStrings(dst, r.Where)
	}
	if len(r.Members) > 0 {
		dst = append(dst, `,"members":`...)
		dst = appendStrings(dst, r.Members)
	}
	if len(r.Cells) > 0 {
		dst = append(dst, `,"cells":[`...)
		for i := range r.Cells {
			c := &r.Cells[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"coord":`...)
			dst = appendStrings(dst, c.Coord)
			dst = append(dst, `,"count":`...)
			dst = strconv.AppendInt(dst, int64(c.Count), 10)
			for _, f := range [...]struct {
				key string
				v   float64
			}{{`,"sum":`, c.Sum}, {`,"mean":`, c.Mean}, {`,"min":`, c.Min}, {`,"max":`, c.Max}} {
				if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
					return dst[:start], unsupportedFloat(f.v)
				}
				dst = append(dst, f.key...)
				dst = appendFloat(dst, f.v)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"total_cells":`...)
	dst = strconv.AppendInt(dst, int64(r.TotalCells), 10)
	return append(dst, '}'), nil
}

// appendFloat formats a finite float as encoding/json does: the
// shortest representation, in exponent form only below 1e-6 or from
// 1e21 on, with a one-digit negative exponent written without its
// leading zero.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on:
// <, > and & as \u00XX, control characters as their short escape or
// \u00XX, invalid UTF-8 as \ufffd, and U+2028/U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Binary cube body ("HODC"), in the HODB frame idiom (frame.go):
// little-endian, a string is a u32 length and its bytes, a list is a
// u32 count and its strings, coordinate members are ids into one
// dictionary per coordinate position, and measures are IEEE-754 bits.
//
//	4B    magic "HODC"
//	u8    version (1)
//	str   plant, then op
//	3×    list: dims (count nilList when null), where, members
//	i64   total_cells
//	u32   width w, then w × list: each coordinate position's members
//	u32   cell count n
//	n×    cell: u32 coordinate length k (nilList when null), k × u32
//	      id, i64 count, then sum, mean, min and max as u64 bits
//	u32   CRC-32C of every byte before it
const (
	// ContentTypeCube negotiates the binary cube body: GET /cube
	// answers it when the request's Accept header names it, and JSON
	// otherwise.
	ContentTypeCube = "application/x-hod-cube"

	cubeMagic   = "HODC"
	cubeVersion = 1
	nilList     = math.MaxUint32
	cellBytes   = 8 + 4*8 // a cell's count and measures
)

// ErrCubeBody marks a malformed binary cube body. Every error of
// DecodeCubeBinary matches it with errors.Is.
var ErrCubeBody = errors.New("wire: bad cube body")

var cubeCRC = crc32.MakeTable(crc32.Castagnoli)

// AppendCubeBinary appends the binary encoding of r to dst. Strings go
// out as a JSON body carries them (jsonText). Like AppendCubeResponse
// it refuses a NaN or infinite measure with encoding/json's error and
// returns dst as it came.
func AppendCubeBinary(dst []byte, r *CubeResponse) ([]byte, error) {
	start := len(dst)
	dst = append(dst, cubeMagic...)
	dst = append(dst, cubeVersion)
	dst = appendText(appendText(dst, r.Plant), r.Op)
	dst = appendList(appendList(appendList(dst, r.Dims, true), r.Where, false), r.Members, false)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.TotalCells))
	width := 0
	for i := range r.Cells {
		width = max(width, len(r.Cells[i].Coord))
	}
	dicts := make([]cubeDict, width)
	ids := make([]uint32, 0, len(r.Cells)*width)
	for i := range r.Cells {
		for p, s := range r.Cells[i].Coord {
			ids = append(ids, dicts[p].id(s))
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(width))
	for i := range dicts {
		dst = appendList(dst, dicts[i].words, false)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Cells)))
	for i := range r.Cells {
		c := &r.Cells[i]
		k := uint32(len(c.Coord))
		if c.Coord == nil {
			k = nilList
		}
		dst = binary.LittleEndian.AppendUint32(dst, k)
		for _, id := range ids[:len(c.Coord)] {
			dst = binary.LittleEndian.AppendUint32(dst, id)
		}
		ids = ids[len(c.Coord):]
		dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Count))
		for _, f := range [...]float64{c.Sum, c.Mean, c.Min, c.Max} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return dst[:start], unsupportedFloat(f)
			}
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], cubeCRC)), nil
}

// cubeDict is one coordinate position's dictionary, in first-seen
// order. An answer's cells come sorted, so a member usually repeats
// the previous cell's and is found without the map.
type cubeDict struct {
	words  []string
	ids    map[string]uint32
	last   string
	lastID uint32
}

func (d *cubeDict) id(s string) uint32 {
	if len(d.words) > 0 && s == d.last {
		return d.lastID
	}
	id, ok := d.ids[s]
	if !ok {
		if d.ids == nil {
			d.ids = make(map[string]uint32)
		}
		id = uint32(len(d.words))
		d.ids[s] = id
		d.words = append(d.words, s)
	}
	d.last, d.lastID = s, id
	return id
}

func appendText(dst []byte, s string) []byte {
	s = jsonText(s)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// appendList writes ss; a nil ss gets the count nilList when null is
// kept apart from empty, as JSON keeps it for dims.
func appendList(dst []byte, ss []string, null bool) []byte {
	if ss == nil && null {
		return binary.LittleEndian.AppendUint32(dst, nilList)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ss)))
	for _, s := range ss {
		dst = appendText(dst, s)
	}
	return dst
}

// jsonText returns s as a JSON body carries it: each byte of an invalid
// UTF-8 sequence becomes U+FFFD, as appendString writes it.
func jsonText(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	b := make([]byte, 0, len(s)+8)
	for _, r := range s {
		b = utf8.AppendRune(b, r)
	}
	return string(b)
}

// DecodeCubeBinary parses a binary cube body into the value
// json.Unmarshal gives for the JSON body of the same answer: where,
// members and cells come back nil when empty, dims and coordinates
// keep null apart from empty. It is the validator: it checks the
// checksum, every count against the bytes left before it allocates by
// it, every id against its dictionary, strings as UTF-8 and measures
// as finite, and that the cells end the body. Any failure is an error
// matching ErrCubeBody.
func DecodeCubeBinary(data []byte) (r CubeResponse, err error) {
	end := len(data) - 4
	switch {
	case end < len(cubeMagic)+1 || string(data[:len(cubeMagic)]) != cubeMagic:
		return CubeResponse{}, fmt.Errorf("%w: no %s header", ErrCubeBody, cubeMagic)
	case data[len(cubeMagic)] != cubeVersion:
		return CubeResponse{}, fmt.Errorf("%w: version %d, want %d", ErrCubeBody, data[len(cubeMagic)], cubeVersion)
	case crc32.Checksum(data[:end], cubeCRC) != binary.LittleEndian.Uint32(data[end:]):
		return CubeResponse{}, fmt.Errorf("%w: checksum mismatch", ErrCubeBody)
	}
	defer func() {
		if e := recover(); e != nil {
			ce, ok := e.(cubeError)
			if !ok {
				panic(e)
			}
			r, err = CubeResponse{}, ce.error
		}
	}()
	d := &cubeReader{p: data[len(cubeMagic)+1 : end], size: end}
	r.Plant, r.Op = d.str(), d.str()
	r.Dims, r.Where, r.Members = d.list(true), d.list(false), d.list(false)
	r.TotalCells = int(int64(binary.LittleEndian.Uint64(d.take(8))))
	dicts := make([][]string, d.count(4))
	for i := range dicts {
		dicts[i] = d.list(false)
	}
	r.Cells = d.cells(dicts)
	if len(d.p) > 0 {
		d.fail("%d bytes after the cells", len(d.p))
	}
	return r, nil
}

// cubeReader reads a binary cube body front to back. A refusal panics
// with a cubeError naming the byte, which DecodeCubeBinary recovers.
type cubeReader struct {
	p    []byte
	size int
}

type cubeError struct{ error }

func (d *cubeReader) fail(format string, args ...any) {
	panic(cubeError{fmt.Errorf("%w: byte %d: %s", ErrCubeBody, d.size-len(d.p), fmt.Sprintf(format, args...))})
}

func (d *cubeReader) take(n int) []byte {
	if n > len(d.p) {
		d.fail("truncated: %d bytes wanted, %d left", n, len(d.p))
	}
	b := d.p[:n:n]
	d.p = d.p[n:]
	return b
}

func (d *cubeReader) u32() uint32 { return binary.LittleEndian.Uint32(d.take(4)) }

// count reads a u32 count of items of at least size bytes each,
// refused beyond what the bytes left can hold.
func (d *cubeReader) count(size int) int {
	n := d.u32()
	if uint64(n) > uint64(len(d.p)/size) {
		d.fail("a count of %d in %d bytes", n, len(d.p))
	}
	return int(n)
}

func (d *cubeReader) str() string {
	b := d.take(int(d.u32()))
	if !utf8.Valid(b) {
		d.fail("string not UTF-8")
	}
	return string(b)
}

func (d *cubeReader) list(null bool) []string {
	if null && len(d.p) >= 4 && binary.LittleEndian.Uint32(d.p) == nilList {
		d.take(4)
		return nil
	}
	n := d.count(4)
	if n == 0 && !null {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.str()
	}
	return ss
}

// cells reads the cell count and the cells. The ids of all
// coordinates share one backing array, sized by the bytes the cells'
// fixed parts leave.
func (d *cubeReader) cells(dicts [][]string) []CubeCell {
	n := d.count(4 + cellBytes)
	if n == 0 {
		return nil
	}
	cells, members := make([]CubeCell, n), make([]string, (len(d.p)-n*(4+cellBytes))/4)
	for i := range cells {
		c := &cells[i]
		if k := d.u32(); k != nilList {
			if uint64(k) > uint64(min(len(dicts), len(members))) {
				d.fail("cell %d: a coordinate of %d members, width %d", i, k, len(dicts))
			}
			c.Coord, members = members[:k:k], members[k:]
		}
		for j := range c.Coord {
			id := d.u32()
			if uint64(id) >= uint64(len(dicts[j])) {
				d.fail("cell %d: id %d outside the %d members at position %d", i, id, len(dicts[j]), j)
			}
			c.Coord[j] = dicts[j][id]
		}
		p := d.take(cellBytes)
		c.Count = int(int64(binary.LittleEndian.Uint64(p)))
		c.Sum = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
		c.Mean = math.Float64frombits(binary.LittleEndian.Uint64(p[16:]))
		c.Min = math.Float64frombits(binary.LittleEndian.Uint64(p[24:]))
		c.Max = math.Float64frombits(binary.LittleEndian.Uint64(p[32:]))
		for _, f := range [...]float64{c.Sum, c.Mean, c.Min, c.Max} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				d.fail("cell %d: a non-finite measure", i)
			}
		}
	}
	return cells
}
