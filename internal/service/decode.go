package service

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

// decodeSolveFast decodes a solve body of the shape fsaid's Go clients
// send, in one forward pass and with no reflection: a single JSON object
// whose keys are spelled exactly as SolveRequest's field names, whose
// strings hold no escape and are valid UTF-8, whose numbers are in range
// for their fields, and after which only whitespace follows. The client
// and the benchmark marshal SolveRequest with encoding/json, and the
// router forwards their bytes unchanged, so a warm request takes this
// path.
//
// It reports false for any other body (escapes, other spellings of a key,
// which encoding/json matches case-insensitively, unknown keys, nested or
// mistyped values, out-of-range numbers, trailing bytes), and the caller
// then decodes with json.Unmarshal. So whenever it reports true,
// json.Unmarshal returns the same request, float bits included, and every
// error message is encoding/json's (FuzzDecodeSolveRequest checks both).
func decodeSolveFast(body []byte) (SolveRequest, bool) {
	var req SolveRequest
	d := fastDecoder{b: body}
	d.space()
	if !d.consume('{') {
		return req, false
	}
	d.space()
	if !d.consume('}') {
		for {
			key, ok := d.str()
			if !ok {
				return req, false
			}
			d.space()
			if !d.consume(':') {
				return req, false
			}
			d.space()
			if !d.field(&req, key) {
				return req, false
			}
			d.space()
			if d.consume('}') {
				break
			}
			if !d.consume(',') {
				return req, false
			}
			d.space()
		}
	}
	d.space()
	return req, d.i == len(d.b)
}

// fastDecoder is decodeSolveFast's cursor over the body.
type fastDecoder struct {
	b []byte
	i int
}

// field decodes the value at the cursor into req's field named key. As in
// encoding/json, a later key overrides an earlier one, and null leaves a
// string, number or bool field as it was and sets rhs to nil.
func (d *fastDecoder) field(req *SolveRequest, key []byte) bool {
	switch string(key) {
	case "matrix":
		return d.setString(&req.Matrix)
	case "precond":
		return d.setString(&req.Precond)
	case "filter":
		return d.setFloat(&req.Filter)
	case "line_bytes":
		return setInt(d, &req.LineBytes, strconv.IntSize)
	case "pattern_power":
		return setInt(d, &req.PatternPower, strconv.IntSize)
	case "tau":
		return d.setFloat(&req.Tau)
	case "tol":
		return d.setFloat(&req.Tol)
	case "max_iter":
		return setInt(d, &req.MaxIter, strconv.IntSize)
	case "resilient":
		return d.setBool(&req.Resilient)
	case "timeout_ms":
		return setInt(d, &req.TimeoutMS, 64)
	case "rhs":
		if d.literal("null") {
			req.RHS = nil
			return true
		}
		var ok bool
		req.RHS, ok = d.floats()
		return ok
	case "return_solution":
		return d.setBool(&req.ReturnSolution)
	case "hold_ms":
		return setInt(d, &req.HoldMS, 64)
	case "setup_only":
		return d.setBool(&req.SetupOnly)
	}
	return false
}

func (d *fastDecoder) setString(dst *string) bool {
	if d.literal("null") {
		return true
	}
	s, ok := d.str()
	if ok {
		*dst = string(s)
	}
	return ok
}

// setFloat converts as encoding/json does, with strconv.ParseFloat at 64
// bits; a token out of float64's range is encoding/json's error to report.
func (d *fastDecoder) setFloat(dst *float64) bool {
	if d.literal("null") {
		return true
	}
	tok, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return false
	}
	*dst = v
	return true
}

// setInt converts as encoding/json does, with strconv.ParseInt at the
// field's bit size, so a fraction, an exponent or an overflow is
// encoding/json's error to report.
func setInt[T int | int64](d *fastDecoder, dst *T, bits int) bool {
	if d.literal("null") {
		return true
	}
	tok, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		return false
	}
	*dst = T(v)
	return true
}

func (d *fastDecoder) setBool(dst *bool) bool {
	switch {
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		return d.literal("null")
	}
	return true
}

// floats decodes the number array at the cursor into one slice of its
// element count. A first pass counts the elements and checks each one's
// syntax without converting it, so a malformed array (64 MiB of commas,
// say) is refused before anything is allocated for it; the second pass
// converts. An empty array is an empty, non-nil slice, as encoding/json
// leaves it.
func (d *fastDecoder) floats() ([]float64, bool) {
	b, i := d.b, d.i
	if i >= len(b) || b[i] != '[' {
		return nil, false
	}
	i = skipSpace(b, i+1)
	start, n := i, 0
	if i < len(b) && b[i] == ']' {
		i++
	} else {
		for {
			if i = skipNumber(b, i); i < 0 {
				return nil, false
			}
			n++
			if i = skipSpace(b, i); i >= len(b) {
				return nil, false
			}
			if b[i] == ']' {
				i++
				break
			}
			if b[i] != ',' {
				return nil, false
			}
			i = skipSpace(b, i+1)
		}
	}
	end := i
	xs := make([]float64, n)
	i = start
	for k := range xs {
		// The first pass checked the array, so element k runs from i to
		// the next comma, or to the closing ']' for the last one, less
		// any whitespace before it.
		j := end - 1
		if k < n-1 {
			j = i + bytes.IndexByte(b[i:j], ',')
		}
		tok := b[i:j]
		for isSpace(tok[len(tok)-1]) {
			tok = tok[:len(tok)-1]
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return nil, false
		}
		xs[k] = v
		i = skipSpace(b, j+1)
	}
	d.i = end
	return xs, true
}

// number scans one JSON number token and leaves the cursor after it.
func (d *fastDecoder) number() ([]byte, bool) {
	j := skipNumber(d.b, d.i)
	if j < 0 {
		return nil, false
	}
	tok := d.b[d.i:j]
	d.i = j
	return tok, true
}

// skipNumber returns the index just past the JSON number token at b[i:],
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or -1 if there is none.
// strconv alone would also take "+1", "01", ".5", "1.", "Inf", hex and
// underscores, none of which is JSON. A digit right after a leading 0
// ends the token, and the caller's structural check refuses it.
func skipNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i+1 >= len(b) || !isDigit(b[i+1]) {
			return -1
		}
		i = skipDigits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return -1
		}
		i = skipDigits(b, i)
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// skipDigits returns the index of the first non-digit at or after b[i].
func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// skipSpace returns the index of the first byte at or after b[i] that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// str scans one JSON string with no escape and valid UTF-8, which
// encoding/json decodes to its bytes unchanged, and returns its contents.
// Control bytes are invalid JSON; escapes and invalid UTF-8 (which
// encoding/json turns into U+FFFD) are left to encoding/json.
func (d *fastDecoder) str() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	start, ascii := d.i, true
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			s := d.b[start:d.i]
			d.i++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// literal consumes lit if the bytes at the cursor spell it. The caller's
// next structural check refuses a literal run into other bytes ("nullx").
func (d *fastDecoder) literal(lit string) bool {
	if len(d.b)-d.i < len(lit) || string(d.b[d.i:d.i+len(lit)]) != lit {
		return false
	}
	d.i += len(lit)
	return true
}

func (d *fastDecoder) consume(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// space skips JSON whitespace.
func (d *fastDecoder) space() { d.i = skipSpace(d.b, d.i) }
