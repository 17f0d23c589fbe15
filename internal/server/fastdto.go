package server

import (
	"strconv"
	"sync"

	"dasc/internal/model"
)

// Fast-path decoding for the two registration DTOs. POST /v1/workers and
// POST /v1/tasks dominate the ingest benchmark, and the generic
// encoding/json decoder is a measurable slice of per-request CPU there. The
// bodies are tiny flat objects with numeric fields and integer arrays, so a
// hand-rolled scanner covers the common case; ANYTHING it does not fully
// recognise (escapes, strings, nested objects, unknown keys, out-of-range
// numbers, trailing data) makes it bail and the caller re-parses with the
// strict json.Decoder, which produces the proper error or handles the
// oddity. The fast path therefore never changes observable behaviour — it
// only skips reflection for well-formed requests.

// dtoScan is a minimal JSON scanner over a complete body.
type dtoScan struct {
	b []byte
	i int
}

func (s *dtoScan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes c (after whitespace) and reports whether it was present.
func (s *dtoScan) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key consumes a quoted object key with no escape sequences.
func (s *dtoScan) key() (string, bool) {
	if !s.lit('"') {
		return "", false
	}
	start := s.i
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '\\':
			return "", false // escapes → generic decoder
		case '"':
			k := string(s.b[start:s.i])
			s.i++
			return k, true
		}
		s.i++
	}
	return "", false
}

// token consumes the longest prefix matching the JSON number grammar
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? and reports whether it
// had a fraction or exponent part. A prefix the grammar cannot finish
// ("1.", "1e", "-") yields ok=false; leading zeros, '+' and a bare '.' end
// the token early, so the caller's next delimiter check bails on them.
func (s *dtoScan) token() (tok []byte, float, ok bool) {
	s.ws()
	b, i := s.b, s.i
	digits := func() int {
		n := 0
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
			n++
		}
		return n
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case digits() == 0:
		return nil, false, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return nil, false, false
		}
		float = true
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil, false, false
		}
		float = true
	}
	tok, s.i = b[s.i:i], i
	return tok, float, true
}

// number consumes a JSON number. Out-of-range values (1e999) fail here so
// the strict decoder can report them exactly as it always has.
func (s *dtoScan) number() (float64, bool) {
	tok, _, ok := s.token()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// integer consumes a JSON number bound for an int32 field (skills, task
// IDs). A fraction or exponent ("2.0", "1e0") or an out-of-range value
// bails: encoding/json rejects those for integer fields rather than
// truncating them.
func (s *dtoScan) integer() (int32, bool) {
	tok, float, ok := s.token()
	if !ok || float {
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, 32)
	return int32(n), err == nil
}

// intArray consumes [n, n, ...] of integers (the skills / deps wire shape),
// appending them to dst.
func intArray[T ~int32](s *dtoScan, dst []T) ([]T, bool) {
	if !s.lit('[') {
		return nil, false
	}
	if s.lit(']') {
		return dst, true
	}
	for {
		n, ok := s.integer()
		if !ok {
			return nil, false
		}
		dst = append(dst, T(n))
		if s.lit(',') {
			continue
		}
		return dst, s.lit(']')
	}
}

// end reports whether only whitespace remains. The generic path (one
// json.Decoder.Decode call) ignores trailing bytes, so trailing data is not
// an error — but it IS unusual, and bailing keeps this scanner honest.
func (s *dtoScan) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// parseObject scans one flat JSON object, handing every key to field, which
// consumes the value and reports whether it recognised both.
func parseObject(body []byte, field func(s *dtoScan, key string) bool) bool {
	s := dtoScan{b: body}
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return s.end()
	}
	for {
		k, ok := s.key()
		if !ok || !s.lit(':') || !field(&s, k) {
			return false
		}
		if !s.lit(',') {
			return s.lit('}') && s.end()
		}
	}
}

// parseWorkerDTO fast-parses a POST /v1/workers body into d, reporting
// whether it fully recognised the input. false means "use the real decoder",
// not "invalid". Unknown fields bail too: the decoder reports them
// (DisallowUnknownFields).
func parseWorkerDTO(body []byte, d *workerDTO) bool {
	return parseObject(body, func(s *dtoScan, k string) (ok bool) {
		switch k {
		case "x":
			d.X, ok = s.number()
		case "y":
			d.Y, ok = s.number()
		case "start":
			d.Start, ok = s.number()
		case "wait":
			d.Wait, ok = s.number()
		case "velocity":
			d.Velocity, ok = s.number()
		case "max_dist":
			d.MaxDist, ok = s.number()
		case "skills":
			var arr []model.Skill
			if arr, ok = intArray(s, d.Skills[:0]); ok {
				d.Skills = arr
			}
		}
		return ok
	})
}

// parseTaskDTO is parseWorkerDTO for POST /v1/tasks bodies.
func parseTaskDTO(body []byte, d *taskDTO) bool {
	return parseObject(body, func(s *dtoScan, k string) (ok bool) {
		switch k {
		case "x":
			d.X, ok = s.number()
		case "y":
			d.Y, ok = s.number()
		case "start":
			d.Start, ok = s.number()
		case "wait":
			d.Wait, ok = s.number()
		case "weight":
			d.Weight, ok = s.number()
		case "requires":
			var n int32
			if n, ok = s.integer(); ok {
				d.Requires = model.Skill(n)
			}
		case "deps":
			var arr []model.TaskID
			if arr, ok = intArray(s, d.Deps[:0]); ok {
				d.Deps = arr
			}
		}
		return ok
	})
}

// bodyPool recycles request-body buffers for the registration endpoints.
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}
