package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"ucpc"
	"ucpc/internal/datasets"
)

// Object bodies. The assign, observe, fit and refresh routes read one
// schema:
//
//	{"objects":[{"marginals":["<token>",…],"label":n},…],"points":[[x,…],…]}
//
// plus a "mode" string on refresh. A hand-written scanner reads it in two
// walks over the body. The first walk checks the body against the schema
// and counts objects without allocating, so admission decides on the
// object count before any marginal token is parsed. The second walk, run
// by dataset(), slices each token out of the body, which is read once
// into a string, and hands it to datasets.ParseObject without a copy.
// Any body the scanner does not
// read exactly as encoding/json would goes to encoding/json instead:
// string escapes, unknown keys or keys in another letter case, duplicate
// keys, nulls, and bytes after the value. The accepted language is
// therefore encoding/json's.

// objectsPayload is the decoded body shared by the observe, fit, assign,
// and refresh endpoints. Objects carry full marginal distributions as ucsv
// tokens (the hardened datasets parser decodes them); points are plain
// vectors turned into deterministic objects, each coordinate checked like a
// "P:x" token. Both may appear in one payload; objects come first in the
// resulting dataset order.
type objectsPayload struct {
	Objects []objectJSON `json:"objects,omitempty"`
	Points  [][]float64  `json:"points,omitempty"`
}

// objectJSON is one uncertain object: per-dimension marginal tokens
// ("P:x", "U:lo:hi", "N:mu:sigma:lo:hi", "E:rate:shift:T", "D:x:w:…") and
// an optional class label.
type objectJSON struct {
	Marginals []string `json:"marginals"`
	Label     *int     `json:"label,omitempty"`
}

// dataset decodes the payload into a ucpc.Dataset.
func (p *objectsPayload) dataset() (ucpc.Dataset, error) {
	n := len(p.Objects) + len(p.Points)
	if n == 0 {
		return nil, fmt.Errorf("serve: payload carries no objects: %w", errBadRequest)
	}
	ds := make(ucpc.Dataset, 0, n)
	for i, o := range p.Objects {
		if len(o.Marginals) == 0 {
			return nil, fmt.Errorf("serve: object %d has no marginals: %w", i, errBadRequest)
		}
		obj, err := datasets.ParseObject(len(ds), o.Marginals)
		if err != nil {
			return nil, fmt.Errorf("serve: object %d: %w", i, err)
		}
		if o.Label != nil {
			obj.Label = *o.Label
		} else {
			obj.Label = -1
		}
		ds = append(ds, obj)
	}
	for i, x := range p.Points {
		if len(x) == 0 {
			return nil, fmt.Errorf("serve: point %d is empty: %w", i, errBadRequest)
		}
		for j, v := range x {
			if err := datasets.CheckPoint(v); err != nil {
				return nil, fmt.Errorf("serve: point %d dim %d: %w", i, j, err)
			}
		}
		o := ucpc.NewPointObject(len(ds), x)
		if err := datasets.CheckObject(o); err != nil {
			return nil, fmt.Errorf("serve: point %d: %w", i, err)
		}
		o.Label = -1
		ds = append(ds, o)
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// payload is one object body that has been read and checked against the
// schema, with no marginal token parsed yet.
type payload struct {
	refreshRequest
	// n is the number of objects plus points, known before any token is
	// parsed.
	n int
	// scan is the scanner that accepted the body; its second walk fills
	// Objects and Points when dataset() first runs. It is nil when
	// encoding/json decoded the body.
	scan *payloadScanner
}

// dataset builds the payload's objects, parsing every token.
func (p *payload) dataset() (ucpc.Dataset, error) {
	if p.scan != nil {
		p.scan.fill(&p.objectsPayload)
		p.scan = nil
	}
	return p.objectsPayload.dataset()
}

// readPayload reads an object body. withMode admits refresh's "mode" key.
func (s *Server) readPayload(w http.ResponseWriter, r *http.Request, withMode bool) (*payload, error) {
	body, err := s.readBody(w, r)
	if err != nil {
		return nil, err
	}
	return parsePayload(body, withMode)
}

// parsePayload scans body, or decodes it with encoding/json when the
// scanner declines it.
func parsePayload(body string, withMode bool) (*payload, error) {
	sc := &payloadScanner{body: body, withMode: withMode}
	if sc.walk() {
		return &payload{refreshRequest: refreshRequest{Mode: sc.mode}, n: sc.objects + sc.points, scan: sc}, nil
	}
	return decodePayload(body, withMode)
}

// decodePayload is encoding/json's reading of an object body. Without
// withMode a "mode" key is an unknown key, which encoding/json ignores.
func decodePayload(body string, withMode bool) (*payload, error) {
	p := new(payload)
	var v any = &p.objectsPayload
	if withMode {
		v = &p.refreshRequest
	}
	if err := decodeJSON(body, v); err != nil {
		return nil, err
	}
	p.n = len(p.Objects) + len(p.Points)
	return p, nil
}

// bodyPresize caps how much of a declared Content-Length readBody reserves
// before any byte arrives, so a client cannot make the daemon hold the
// whole body cap by declaring a length it never sends. Assign and observe
// bodies are well below it; larger bodies grow as they arrive.
const bodyPresize = 1 << 20

// readBody reads the whole request body under the server's body-size cap.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (string, error) {
	var b strings.Builder
	if n := min(r.ContentLength, bodyPresize, s.cfg.MaxBodyBytes); n > 0 {
		b.Grow(int(n))
	}
	if _, err := io.Copy(&b, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return "", fmt.Errorf("serve: body exceeds %d bytes: %w", tooBig.Limit, errBadRequest)
		}
		return "", fmt.Errorf("serve: reading body: %v: %w", err, errBadRequest)
	}
	return b.String(), nil
}

// decodeBody decodes the request body as JSON into v, with the server's
// body-size cap applied.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := s.readBody(w, r)
	if err != nil {
		return err
	}
	return decodeJSON(body, v)
}

// decodeJSON decodes the first JSON value of body into v. Like
// json.Decoder, it ignores whatever follows that value.
func decodeJSON(body string, v any) error {
	if err := json.NewDecoder(strings.NewReader(body)).Decode(v); err != nil {
		return fmt.Errorf("serve: malformed JSON body: %v: %w", err, errBadRequest)
	}
	return nil
}

// payloadScanner reads an object body against the fixed schema. walk
// checks and counts; fill walks again and records. Every method returns
// false on input outside the schema, and the body then goes to
// encoding/json.
type payloadScanner struct {
	body     string
	i        int
	withMode bool
	mode     string

	// Counts of what has been walked so far.
	objects, tokens, labels, points, coords int

	// Set only on the recording walk: the payload it fills and the backing
	// stores its slices are carved from, sized by the counting walk.
	out    *objectsPayload
	toks   []string
	labelv []int
	xs     []float64
}

// walk scans the whole body.
func (s *payloadScanner) walk() bool {
	var seenObjects, seenPoints, seenMode bool
	ok := s.object(func(key string) bool {
		switch {
		case key == "objects" && !seenObjects:
			seenObjects = true
			return s.array(s.element)
		case key == "points" && !seenPoints:
			seenPoints = true
			return s.array(s.row)
		case key == "mode" && s.withMode && !seenMode:
			seenMode = true
			var ok bool
			s.mode, ok = s.str()
			return ok
		}
		return false
	})
	s.space()
	return ok && s.i == len(s.body)
}

// fill walks the body again and records it into out. The counting walk
// accepted the body, so this walk accepts it too, and the stores sized
// from its counts never grow.
func (s *payloadScanner) fill(out *objectsPayload) {
	out.Objects = make([]objectJSON, 0, s.objects)
	out.Points = make([][]float64, 0, s.points)
	*s = payloadScanner{
		body: s.body, withMode: s.withMode, out: out,
		toks:   make([]string, 0, s.tokens),
		labelv: make([]int, 0, s.labels),
		xs:     make([]float64, 0, s.coords),
	}
	if !s.walk() {
		panic("serve: payload scanner declined a body it had accepted")
	}
}

// element scans one entry of "objects".
func (s *payloadScanner) element() bool {
	first := s.tokens
	var seenMarginals, seenLabel bool
	var label *int
	ok := s.object(func(key string) bool {
		switch {
		case key == "marginals" && !seenMarginals:
			seenMarginals = true
			return s.array(s.token)
		case key == "label" && !seenLabel:
			seenLabel = true
			v, ok := s.integer()
			if !ok {
				return false
			}
			s.labels++
			if s.out != nil {
				s.labelv = append(s.labelv, v)
				label = &s.labelv[len(s.labelv)-1]
			}
			return true
		}
		return false
	})
	if !ok {
		return false
	}
	s.objects++
	if s.out != nil {
		o := objectJSON{Label: label}
		if seenMarginals {
			o.Marginals = s.toks[first:s.tokens:s.tokens]
		}
		s.out.Objects = append(s.out.Objects, o)
	}
	return true
}

// token scans one marginal token.
func (s *payloadScanner) token() bool {
	tok, ok := s.str()
	if !ok {
		return false
	}
	s.tokens++
	if s.out != nil {
		s.toks = append(s.toks, tok)
	}
	return true
}

// row scans one entry of "points". Its coordinates are parsed on the
// counting walk, as encoding/json parses them while decoding: a coordinate
// out of float64 range fails the decode even where the route builds no
// dataset (refresh in stream mode), so the scanner declines it too.
func (s *payloadScanner) row() bool {
	first := s.coords
	ok := s.array(func() bool {
		lit, ok := s.number()
		if !ok {
			return false
		}
		x, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			return false
		}
		s.coords++
		if s.out != nil {
			s.xs = append(s.xs, x)
		}
		return true
	})
	if !ok {
		return false
	}
	s.points++
	if s.out != nil {
		s.out.Points = append(s.out.Points, s.xs[first:s.coords:s.coords])
	}
	return true
}

// object scans a JSON object, handing each key to member to scan its
// value. member refuses keys it does not know or has seen already.
func (s *payloadScanner) object(member func(key string) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') || !member(key) {
			return false
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// array scans a JSON array, calling elem to scan each element.
func (s *payloadScanner) array(elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.eat(']') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// space skips JSON whitespace.
func (s *payloadScanner) space() {
	for s.i < len(s.body) {
		switch s.body[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat skips whitespace and then c, reporting whether c was there.
func (s *payloadScanner) eat(c byte) bool {
	s.space()
	if s.i < len(s.body) && s.body[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str scans a string of plain bytes (see plain) and returns its contents.
// The recording walk skips the byte check: the counting walk made it.
func (s *payloadScanner) str() (string, bool) {
	s.space()
	b := s.body
	if s.i >= len(b) || b[s.i] != '"' {
		return "", false
	}
	n := strings.IndexByte(b[s.i+1:], '"')
	if n < 0 {
		return "", false
	}
	v := b[s.i+1 : s.i+1+n]
	if s.out == nil && !plain(v) {
		return "", false
	}
	s.i += n + 2
	return v, true
}

// plain reports whether v holds only printable ASCII other than '\\', the
// bytes a JSON string carries unchanged through encoding/json's decoding.
// It tests eight bytes at a time: a byte fails if its high bit is set, if
// subtracting 0x20 borrows (it is below 0x20), or if it equals '\\' (the
// classic has-zero-byte test on the word XOR '\\').
func plain(v string) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; len(v) >= 8; v = v[8:] {
		w := uint64(v[0]) | uint64(v[1])<<8 | uint64(v[2])<<16 | uint64(v[3])<<24 |
			uint64(v[4])<<32 | uint64(v[5])<<40 | uint64(v[6])<<48 | uint64(v[7])<<56
		bs := w ^ (ones * '\\')
		if (w|(w-ones*0x20)|((bs-ones)&^bs))&highs != 0 {
			return false
		}
	}
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < 0x20 || c >= 0x80 || c == '\\' {
			return false
		}
	}
	return true
}

// number scans a JSON number literal.
func (s *payloadScanner) number() (string, bool) {
	s.space()
	b, i := s.body, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return "", false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return "", false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return "", false
		}
		i = j
	}
	lit := b[s.i:i]
	s.i = i
	return lit, true
}

// integer scans a JSON integer literal that fits an int, the literals
// encoding/json decodes into a label.
func (s *payloadScanner) integer() (int, bool) {
	lit, ok := s.number()
	if !ok || strings.ContainsAny(lit, ".eE") {
		return 0, false
	}
	v, err := strconv.Atoi(lit)
	return v, err == nil
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b string, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
