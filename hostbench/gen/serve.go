package gen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"

	"stronghold/internal/modelcfg"
	"stronghold/internal/serve"
)

// Request is one generated HTTP request.
type Request struct {
	Path string
	Body []byte // nil for GET
	// Hash is the canonical request hash the server keys its cache by
	// ("" for GET).
	Hash string
	// Key indexes the hot key set (-1 outside it).
	Key int
}

// Get reports whether the request is a GET.
func (r Request) Get() bool { return r.Body == nil }

// Endpoint paths.
const (
	PathSolve    = "/v1/solve"
	PathCapacity = "/v1/capacity"
	PathWhatIf   = "/v1/whatif"
	PathMethods  = "/v1/methods"
	PathMetrics  = "/metrics"
)

// whatIfMethods are the plan-driven methods /v1/whatif accepts, with
// the largest size (billions, at the default width and batch) that
// fits on the V100 server, so every generated what-if has an answer.
var whatIfMethods = []struct {
	key string
	max float64
}{
	{"stronghold", 10}, {"stronghold-nvme", 10},
	{"zero-infinity", 10}, {"zero-infinity-nvme", 10},
	{"l2l", 6}, {"zero-offload", 6}, {"interleaved-opt", 6},
}

// capacityMethods are the single-node methods a capacity request may
// name.
var capacityMethods = []string{
	"megatron-lm", "l2l", "zero-offload", "zero-infinity",
	"zero-infinity-nvme", "interleaved-opt", "stronghold", "stronghold-nvme",
}

// query is one canonical question; render writes it out in one of many
// spellings that all canonicalize to the same key.
type query struct {
	path     string
	method   string // canonical key (solve, whatif)
	platform string // canonical key
	size     float64
	hidden   int
	batch    int
	coopt    bool
	fault    faultSpec
	adapt    bool // whatif: disable_adapt
	methods  []string
}

type faultSpec struct {
	slow   bool
	factor float64 // slow
	durMS  int     // slow: window length; rand: stall length
	every  int     // slow: period in ms
	n      int     // rand: stall count
	seed   int     // rand
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Pow(hi/lo, rng.Float64())
}

func drawFault(rng *rand.Rand) faultSpec {
	if rng.IntN(2) == 0 {
		d := 5 + rng.IntN(46)
		return faultSpec{slow: true, factor: float64(20+rng.IntN(71)) / 100, durMS: d, every: d * (2 + rng.IntN(3))}
	}
	return faultSpec{n: 2 + rng.IntN(9), durMS: 1 + rng.IntN(8), seed: 1 + rng.IntN(1000)}
}

// whatIf draws a what-if for one method with a size log-uniform in
// [lo, hi] billions, rounded to the given decimal digits.
func whatIf(rng *rand.Rand, method string, lo, hi float64, digits int) query {
	p := math.Pow(10, float64(digits))
	q := query{
		path: PathWhatIf, method: method, platform: "v100",
		size:   math.Round(logUniform(rng, lo, hi)*p) / p,
		hidden: 2560, batch: 4, fault: drawFault(rng),
	}
	q.adapt = strings.HasPrefix(method, "stronghold") && rng.IntN(10) == 0
	return q
}

func drawSolve(rng *rand.Rand, digits int) query {
	p := math.Pow(10, float64(digits))
	return query{
		path: PathSolve, method: []string{"stronghold", "stronghold-nvme"}[rng.IntN(2)],
		platform: "v100", size: math.Round(logUniform(rng, 1, 20)*p) / p,
		hidden: Hiddens[rng.IntN(len(Hiddens))], batch: Batches[rng.IntN(len(Batches))],
		coopt: rng.IntN(2) == 0,
	}
}

func drawCapacity(rng *rand.Rand) query {
	q := query{path: PathCapacity, platform: []string{"v100", "a10-cluster"}[rng.IntN(2)]}
	for _, m := range capacityMethods {
		if rng.IntN(2) == 0 {
			q.methods = append(q.methods, m)
		}
	}
	if len(q.methods) == 0 {
		q.methods = []string{capacityMethods[rng.IntN(len(capacityMethods))]}
	}
	return q
}

// spell returns one spelling of a canonical method or platform key:
// itself, upper-cased, padded, or an alias.
func spell(rng *rand.Rand, key string, aliases ...string) string {
	choices := append([]string{key, strings.ToUpper(key), " " + key + " "}, aliases...)
	return choices[rng.IntN(len(choices))]
}

func methodSpelling(rng *rand.Rand, key string) string {
	m, err := modelcfg.ParseMethod(key)
	if err != nil {
		panic("gen: unknown method key " + key)
	}
	info := modelcfg.Lookup(m)
	return spell(rng, key, append([]string{info.Display}, info.Aliases...)...)
}

func platformSpelling(rng *rand.Rand, key string) (string, bool) {
	if key == "v100" {
		if rng.IntN(3) == 0 {
			return "", false // omitted: the default platform
		}
		return spell(rng, key), true
	}
	return spell(rng, key, "a10", "A10"), true
}

// field is one JSON member, its value already encoded.
type field struct{ name, value string }

// object writes members in a seeded order with seeded whitespace.
func object(rng *rand.Rand, fields []field) string {
	rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
	seps := [][2]string{{",", ":"}, {", ", ": "}, {",\n  ", " : "}}
	sep := seps[rng.IntN(len(seps))]
	parts := make([]string, len(fields))
	for i, f := range fields {
		parts[i] = strconv.Quote(f.name) + sep[1] + f.value
	}
	return "{" + strings.Join(parts, sep[0]) + "}"
}

func str(s string) string { return strconv.Quote(s) }

func (q query) modelJSON(rng *rand.Rand) string {
	fs := []field{{"size_billions", strconv.FormatFloat(q.size, 'g', -1, 64)}}
	if q.hidden != 2560 || rng.IntN(2) == 0 {
		fs = append(fs, field{"hidden", strconv.Itoa(q.hidden)})
	}
	if q.batch != 4 || rng.IntN(2) == 0 {
		fs = append(fs, field{"batch_size", strconv.Itoa(q.batch)})
	}
	if rng.IntN(3) == 0 {
		fs = append(fs, field{"model_parallel", "1"})
	}
	return object(rng, fs)
}

// ms renders a millisecond duration in one of several Go spellings.
func ms(rng *rand.Rand, v int) string {
	switch rng.IntN(3) {
	case 0:
		return fmt.Sprintf("%dms", v)
	case 1:
		return strconv.FormatFloat(float64(v)/1000, 'g', -1, 64) + "s"
	}
	return fmt.Sprintf("%dus", v*1000)
}

func (f faultSpec) render(rng *rand.Rand) string {
	var params []string
	var head string
	if f.slow {
		head = "h2d:slow"
		params = []string{"at=0s", "dur=" + ms(rng, f.durMS), "every=" + ms(rng, f.every),
			"factor=" + strconv.FormatFloat(f.factor, 'g', -1, 64)}
	} else {
		head = "h2d:rand"
		params = []string{fmt.Sprintf("n=%d", f.n), "span=1s", "dur=" + ms(rng, f.durMS)}
	}
	rng.Shuffle(len(params), func(i, j int) { params[i], params[j] = params[j], params[i] })
	sep := []string{",", ", "}[rng.IntN(2)]
	rule := head + "(" + strings.Join(params, sep) + ")"
	if !f.slow {
		return fmt.Sprintf("seed=%d;%s", f.seed, rule)
	}
	if rng.IntN(4) == 0 {
		return "seed=0; " + rule // seed 0 is the unseeded plan
	}
	return rule
}

// render writes the query in a seeded spelling.
func (q query) render(rng *rand.Rand) []byte {
	var fs []field
	if p, ok := platformSpelling(rng, q.platform); ok {
		fs = append(fs, field{"platform", str(p)})
	}
	switch q.path {
	case PathSolve:
		fs = append(fs, field{"model", q.modelJSON(rng)}, field{"method", str(methodSpelling(rng, q.method))})
		if q.coopt || rng.IntN(2) == 0 {
			fs = append(fs, field{"coopt", strconv.FormatBool(q.coopt)})
		}
	case PathWhatIf:
		fs = append(fs, field{"model", q.modelJSON(rng)}, field{"method", str(methodSpelling(rng, q.method))},
			field{"faults", str(q.fault.render(rng))})
		if q.adapt || rng.IntN(2) == 0 {
			fs = append(fs, field{"disable_adapt", strconv.FormatBool(q.adapt)})
		}
	case PathCapacity:
		names := make([]string, 0, len(q.methods)+1)
		for _, m := range q.methods {
			names = append(names, str(methodSpelling(rng, m)))
		}
		if rng.IntN(4) == 0 {
			names = append(names, str(q.methods[0])) // duplicates collapse
		}
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		fs = append(fs, field{"methods", "[" + strings.Join(names, ",") + "]"})
	}
	return []byte(object(rng, fs))
}

// Canonical hashes a body as the server does.
func Canonical(path string, body []byte) (string, error) {
	var hash string
	var err error
	switch path {
	case PathSolve:
		_, hash, err = serve.CanonicalSolve(body)
	case PathCapacity:
		_, hash, err = serve.CanonicalCapacity(body)
	case PathWhatIf:
		_, hash, err = serve.CanonicalWhatIf(body)
	default:
		err = fmt.Errorf("gen: %s is not a simulation endpoint", path)
	}
	return hash, err
}

func mustRequest(path string, body []byte, key int) Request {
	hash, err := Canonical(path, body)
	if err != nil {
		panic(fmt.Sprintf("gen: generated %s body does not canonicalize: %v\n%s", path, err, body))
	}
	return Request{Path: path, Body: body, Hash: hash, Key: key}
}

// Hot is the serve-hot request stream: a small key set, well under the
// server's 256-entry result cache, written in many spellings.
type Hot struct {
	// Keys holds one plain spelling of each key, for warming the cache.
	Keys []Request
	pool []Request
}

// Hot key-set composition and the period of the mixed-in GETs. The
// what-if keys sit on a fixed grid — every plan-driven method at
// hotSizes — so the cost of filling the cache does not depend on the
// seed; the seed draws their fault plans, the solve and capacity keys
// and every spelling.
const (
	hotSolve    = 8
	hotCapacity = 4
	// MethodsEvery and MetricsEvery: one request in MethodsEvery is
	// GET /v1/methods, one in MetricsEvery a /metrics scrape.
	MethodsEvery = 10
	MetricsEvery = 500
	hotPool      = 4096
)

var hotSizes = []float64{1.5, 4}

// NewHot builds the hot stream for a seed.
func NewHot(seed uint64) *Hot {
	rng := rand.New(rand.NewPCG(seed, 0x407))
	var qs []query
	for _, m := range whatIfMethods {
		for _, size := range hotSizes {
			qs = append(qs, whatIf(rng, m.key, size, size, 2))
		}
	}
	for i := 0; i < hotSolve; i++ {
		qs = append(qs, drawSolve(rng, 2))
	}
	for i := 0; i < hotCapacity; i++ {
		qs = append(qs, drawCapacity(rng))
	}
	h := &Hot{}
	for k, q := range qs {
		h.Keys = append(h.Keys, mustRequest(q.path, q.render(rng), k))
	}
	for i := 0; i < hotPool; i++ {
		k := rng.IntN(len(qs))
		r := mustRequest(qs[k].path, qs[k].render(rng), k)
		if r.Hash != h.Keys[k].Hash {
			panic(fmt.Sprintf("gen: spelling of hot key %d changed its canonical hash:\n%s\n%s", k, r.Body, h.Keys[k].Body))
		}
		h.pool = append(h.pool, r)
	}
	return h
}

// Request returns the i-th request of the stream.
func (h *Hot) Request(i int) Request {
	switch {
	case i%MetricsEvery == MetricsEvery-1:
		return Request{Path: PathMetrics, Key: -1}
	case i%MethodsEvery == MethodsEvery-1:
		return Request{Path: PathMethods, Key: -1}
	}
	return h.pool[i%len(h.pool)]
}

// Cold is the serve-cold request stream: every simulation request has a
// distinct canonical key. It is built in blocks of coldBlock requests —
// coldWhatIfs what-ifs, coldSolves solves and the rest capacity queries,
// in seeded order — and the what-ifs cycle through every plan-driven
// method × size-bucket stratum, so any stretch of the stream costs
// about the same to serve. The seed draws exact sizes (1–10B), fault
// plans, solve and capacity questions, and spellings.
type Cold struct {
	rng    *rand.Rand
	seen   map[string]bool
	reqs   []Request
	block  []query
	strata []int // pending what-if strata of the current cycle
	// capacityRetries counts consecutive repeated capacity questions.
	capacityRetries int
}

const (
	coldBlock   = 25
	coldWhatIfs = 21
	coldSolves  = 3
	sizeBuckets = 3
)

// NewCold returns the cold stream for a seed.
func NewCold(seed uint64) *Cold {
	return &Cold{rng: rand.New(rand.NewPCG(seed, 0xc01d)), seen: make(map[string]bool)}
}

// Ensure extends the stream to at least n requests. Generation
// canonicalizes every body, so callers extend the stream outside timed
// phases.
func (c *Cold) Ensure(n int) {
	for len(c.reqs) < n {
		c.reqs = append(c.reqs, c.next())
	}
}

// Request returns the i-th request; i must be below Len.
func (c *Cold) Request(i int) Request { return c.reqs[i] }

func (c *Cold) nextWhatIf() query {
	if len(c.strata) == 0 {
		c.strata = c.rng.Perm(len(whatIfMethods) * sizeBuckets)
	}
	st := c.strata[0]
	c.strata = c.strata[1:]
	m := whatIfMethods[st/sizeBuckets]
	b := float64(st % sizeBuckets)
	width := math.Log(m.max) / sizeBuckets
	return whatIf(c.rng, m.key, math.Exp(b*width), math.Exp((b+1)*width), 4)
}

func (c *Cold) fillBlock() {
	for i := 0; i < coldBlock; i++ {
		switch {
		case i < coldWhatIfs:
			c.block = append(c.block, c.nextWhatIf())
		case i < coldWhatIfs+coldSolves:
			c.block = append(c.block, drawSolve(c.rng, 4))
		default:
			c.block = append(c.block, drawCapacity(c.rng))
		}
	}
	c.rng.Shuffle(len(c.block), func(i, j int) { c.block[i], c.block[j] = c.block[j], c.block[i] })
}

func (c *Cold) next() Request {
	for {
		if len(c.block) == 0 {
			c.fillBlock()
		}
		q := c.block[0]
		c.block = c.block[1:]
		req := mustRequest(q.path, q.render(c.rng), -1)
		if !c.seen[req.Hash] {
			c.seen[req.Hash] = true
			if q.path == PathCapacity {
				c.capacityRetries = 0
			}
			return req
		}
		// A repeated key is replaced by a fresh question of the same
		// kind. Only capacity questions, of which there are a few
		// hundred, repeat; once they run short a solve stands in.
		switch q.path {
		case PathCapacity:
			if c.capacityRetries++; c.capacityRetries < 20 {
				c.block = append(c.block, drawCapacity(c.rng))
			} else {
				c.block = append(c.block, drawSolve(c.rng, 4))
			}
		case PathSolve:
			c.block = append(c.block, drawSolve(c.rng, 4))
		default:
			c.block = append(c.block, c.nextWhatIf())
		}
	}
}
