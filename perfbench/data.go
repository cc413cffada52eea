package main

import (
	"encoding/json"
	"fmt"
	"math"

	"ucpc"
	"ucpc/internal/datasets"
	"ucpc/internal/dist"
	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
	"ucpc/internal/uncgen"
	"ucpc/internal/vec"
)

// Token families, in the order the mixed observe chunks rotate through.
var families = [3]uncgen.Model{uncgen.Uniform, uncgen.Normal, uncgen.Exponential}

// source draws KDD-shaped records (datasets.KDDStream) and attaches the
// paper's §5.1 uncertainty to them (uncgen). Every source of a run shares
// the run seed's class structure, so the served model is trained on the
// distribution it then serves; a per-purpose salt picks a disjoint range of
// records and its own uncertainty draws. The same seed always yields the
// same inputs.
type source struct {
	kdd  *datasets.KDDStream
	r    *rng.RNG
	std  vec.Vector
	gens [3]*uncgen.Generator
	p    vec.Vector
	// drawn counts the payload objects drawn so far; famOf sees it, so a
	// family rotation runs on across payloads (single-object ones too).
	drawn int
}

// Per-purpose salts.
const (
	saltTrain uint64 = iota + 1
	saltAssign
	saltIngest
	saltTrickle
	saltFit
	saltProbe
)

// saltRecords is the record range each purpose owns; no purpose draws more.
const saltRecords = 50000

func newSource(seed, salt uint64) *source {
	s := &source{
		kdd: datasets.NewKDDStream(seed),
		r:   rng.New(seed ^ (salt * 0x9e3779b97f4a7c15)),
		p:   make(vec.Vector, dims),
	}
	for i := uint64(0); i < (salt-1)*saltRecords; i++ {
		s.kdd.Next(s.p)
	}
	// Record spread: class centres N(0, 3) plus within-class N(0, 1).
	s.std = make(vec.Vector, dims)
	for j := range s.std {
		s.std[j] = math.Sqrt(10)
	}
	for i, m := range families {
		s.gens[i] = &uncgen.Generator{Model: m}
	}
	return s
}

// marginals draws the next record with family fam's uncertainty.
func (s *source) marginals(fam int) []dist.Distribution {
	s.kdd.Next(s.p)
	return s.gens[fam].AssignPoint(s.p, s.std, s.r)
}

// objects builds n in-process objects of one family (no parsing).
func (s *source) objects(n, fam int) ucpc.Dataset {
	ds := make(ucpc.Dataset, n)
	for i := range ds {
		ds[i] = uncertain.NewObject(i, s.marginals(fam))
	}
	return ds
}

// payload is one request body with the dataset the daemon decodes from it
// (parsed here with the daemon's own functions, so checks compare like
// with like).
type payload struct {
	body []byte
	objs ucpc.Dataset
}

type objectJSON struct {
	Marginals []string `json:"marginals"`
}

type objectsJSON struct {
	Objects []objectJSON `json:"objects"`
}

// payload draws n objects, family chosen per drawn object by famOf, and renders
// them as the daemon's {"objects":[{"marginals":[...]}]} body.
func (s *source) payload(n int, famOf func(i int) int) (payload, error) {
	doc := objectsJSON{Objects: make([]objectJSON, n)}
	for i := range doc.Objects {
		ms := s.marginals(famOf(s.drawn))
		s.drawn++
		toks := make([]string, len(ms))
		for j, d := range ms {
			tok, err := datasets.FormatMarginal(d)
			if err != nil {
				return payload{}, err
			}
			toks[j] = tok
		}
		doc.Objects[i].Marginals = toks
	}
	body, err := json.Marshal(doc)
	if err != nil {
		return payload{}, err
	}
	objs, err := parseObjects(doc)
	if err != nil {
		return payload{}, err
	}
	return payload{body: body, objs: objs}, nil
}

// parseObjects turns decoded marginal tokens into objects exactly as the
// daemon does: datasets.ParseMarginal per token, ucpc.NewObject per object.
func parseObjects(doc objectsJSON) (ucpc.Dataset, error) {
	marg, err := parseTokens(doc)
	if err != nil {
		return nil, err
	}
	return newObjects(marg), nil
}

// parseTokens is the parse stage: every token through datasets.ParseMarginal.
func parseTokens(doc objectsJSON) ([][]dist.Distribution, error) {
	out := make([][]dist.Distribution, len(doc.Objects))
	for i, o := range doc.Objects {
		ms := make([]dist.Distribution, len(o.Marginals))
		for j, tok := range o.Marginals {
			d, err := datasets.ParseMarginal(tok)
			if err != nil {
				return nil, fmt.Errorf("object %d dim %d: %w", i, j, err)
			}
			ms[j] = d
		}
		out[i] = ms
	}
	return out, nil
}

// newObjects is the moment-building stage: ucpc.NewObject per object.
func newObjects(marg [][]dist.Distribution) ucpc.Dataset {
	ds := make(ucpc.Dataset, len(marg))
	for i, ms := range marg {
		ds[i] = ucpc.NewObject(i, ms)
		ds[i].Label = -1
	}
	return ds
}

func allNormal(int) int { return 1 }

// mixedThirds rotates U, N, E object by object: equal thirds of tokens.
func mixedThirds(i int) int { return i % 3 }

// payloads draws count payloads of n objects each.
func (s *source) payloads(count, n int, famOf func(int) int) ([]payload, error) {
	out := make([]payload, count)
	for i := range out {
		p, err := s.payload(n, famOf)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}
