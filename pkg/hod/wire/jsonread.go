package wire

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// jsonReader is the hand-written JSON scanner under the hot body the
// v1 API decodes, the NDJSON ingest line (recordReader). It reads one
// document held in memory, validating as it goes, with encoding/json's
// grammar, nesting limit and string unescaping; what a value means is
// the caller's.
type jsonReader struct {
	data    []byte
	i       int
	scratch []byte            // unescaped string bytes
	strs    map[string]string // one string per distinct value (intern)
}

// maxDepth is encoding/json's nesting limit: a document nested deeper
// is a syntax error there, so it is one here.
const maxDepth = 10000

// jsonError is a document the reader refuses: what it wanted, where,
// and the member whose value it was reading when a caller names one.
type jsonError struct {
	key  string
	what string
	off  int
}

func (e *jsonError) Error() string {
	if e.key != "" {
		return fmt.Sprintf("key %q: %s at offset %d", e.key, e.what, e.off)
	}
	return fmt.Sprintf("%s at offset %d", e.what, e.off)
}

func (d *jsonReader) fail(what string) error { return &jsonError{what: what, off: d.i} }

func (d *jsonReader) peek() byte {
	if d.i < len(d.data) {
		return d.data[d.i]
	}
	return 0
}

func (d *jsonReader) space() {
	i := d.i
	for i < len(d.data) && (d.data[i] == ' ' || d.data[i] == '\t' || d.data[i] == '\n' || d.data[i] == '\r') {
		i++
	}
	d.i = i
}

func (d *jsonReader) literal(word string) error {
	if len(d.data)-d.i < len(word) || string(d.data[d.i:d.i+len(word)]) != word {
		return d.fail("bad literal")
	}
	d.i += len(word)
	return nil
}

// null consumes a null literal if one is next.
func (d *jsonReader) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

// object reads an object at nesting depth depth (the reader is on its
// '{'), calling member with each unescaped key; member reads the value.
func (d *jsonReader) object(depth int, member func(key []byte) error) error {
	if depth > maxDepth {
		return d.fail("nesting too deep")
	}
	d.i++
	d.space()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.fail("want a key")
		}
		key, err := d.rawString()
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.fail("want ':'")
		}
		d.i++
		d.space()
		if err := member(key); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
			d.space()
		case '}':
			d.i++
			return nil
		default:
			return d.fail("want ',' or '}'")
		}
	}
}

// array reads an array at nesting depth depth (the reader is on its
// '['), calling elem for each element; elem reads it.
func (d *jsonReader) array(depth int, elem func() error) error {
	if depth > maxDepth {
		return d.fail("nesting too deep")
	}
	d.i++
	d.space()
	if d.peek() == ']' {
		d.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
			d.space()
		case ']':
			d.i++
			return nil
		default:
			return d.fail("want ',' or ']'")
		}
	}
}

// number reads a JSON number and returns its literal.
func (d *jsonReader) number() ([]byte, error) {
	data, i := d.data, d.i
	digits := func(i int) int {
		for i < len(data) && data[i]-'0' < 10 {
			i++
		}
		return i
	}
	start := i
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && data[i]-'1' < 9:
		i = digits(i)
	default:
		d.i = i
		return nil, d.fail("want a number")
	}
	if i < len(data) && data[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			d.i = j
			return nil, d.fail("want a fraction digit")
		}
		i = j
	}
	if i < len(data) && data[i]|0x20 == 'e' {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			d.i = j
			return nil, d.fail("want an exponent digit")
		}
		i = j
	}
	d.i = i
	return data[start:i], nil
}

// rawString reads a string (the reader is on its opening quote) and
// returns its unescaped bytes: a window of the input when there is
// nothing to unescape, else the reader's scratch buffer, valid until
// the next call. Unescaping is encoding/json's: invalid UTF-8 and
// unpaired surrogates become U+FFFD.
func (d *jsonReader) rawString() ([]byte, error) {
	data, start := d.data, d.i+1
	i := start
	for i < len(data) {
		c := data[i]
		if plainASCII[c] {
			i++
			continue
		}
		if c == '"' {
			d.i = i + 1
			return data[start:i], nil
		}
		if c < utf8.RuneSelf {
			break // an escape or a control character
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	d.i = i
	return d.unescape(start)
}

// plainASCII marks the bytes a string carries as they are: ASCII
// other than the quote, the backslash and control characters.
var plainASCII = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescape finishes the string rawString began at data[start:]: the
// reader is on the first byte that needs work. The result is built in
// the scratch buffer.
func (d *jsonReader) unescape(start int) ([]byte, error) {
	b := append(d.scratch[:0], d.data[start:d.i]...)
	defer func() { d.scratch = b[:0] }()
	for d.i < len(d.data) {
		c := d.data[d.i]
		switch {
		case c == '"':
			d.i++
			return b, nil
		case c < ' ':
			return nil, d.fail("control character in string")
		case c == '\\':
			d.i++
			switch e := d.peek(); e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[d.i+1:])
				if r < 0 {
					return nil, d.fail("bad \\u escape")
				}
				d.i += 4
				if utf16.IsSurrogate(r) {
					var r2 rune = -1
					if rest := d.data[d.i+1:]; len(rest) >= 2 && rest[0] == '\\' && rest[1] == 'u' {
						r2 = hex4(rest[2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						r = dec
						d.i += 6
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				return nil, d.fail("bad escape")
			}
			d.i++
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.i++
		default:
			r, size := utf8.DecodeRune(d.data[d.i:])
			b = utf8.AppendRune(b, r)
			d.i += size
		}
	}
	return nil, d.fail("unterminated string")
}

// hex4 reads four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// skip reads and discards any value at nesting depth depth.
func (d *jsonReader) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(depth, func([]byte) error { return d.skip(depth + 1) })
	case c == '[':
		return d.array(depth, func() error { return d.skip(depth + 1) })
	case c == '"':
		_, err := d.rawString()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	default:
		_, err := d.number()
		return err
	}
}

// intern returns b as a string, one string per distinct value read.
func (d *jsonReader) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	if d.strs == nil {
		d.strs = make(map[string]string)
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// unsupportedFloat is encoding/json's error for a NaN or infinite
// float, which JSON cannot carry.
func unsupportedFloat(f float64) error {
	return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
}
