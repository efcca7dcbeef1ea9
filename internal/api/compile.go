package api

import (
	"encoding/binary"
	"fmt"
	"net/http"

	"treegion/internal/compcache"
	"treegion/internal/core"
	"treegion/internal/eval"
	"treegion/internal/machine"
)

// CompileConfig is the configuration a compile body names, field by field:
// the part of the body /v1/compile, POST /v1/jobs and /v1/compile-batch
// share. The configuration arrives by name, mirroring treegionc's flags;
// zero values select the paper's headline configuration (see Normalize).
type CompileConfig struct {
	Region    string `json:"region"`    // bb, slr, tree, sb, tree-td (default tree)
	Heuristic string `json:"heuristic"` // depheight, exitcount, globalweight, weightedcount
	Machine   string `json:"machine"`   // 1U, 4U, 8U, 16U (default 4U)
	// Rename defaults to true; send false explicitly to disable.
	Rename    *bool `json:"rename"`
	DomPar    bool  `json:"dompar"`
	IfConvert bool  `json:"ifconvert"`
	// ExpansionLimit bounds tree-td tail duplication (default 2.0).
	ExpansionLimit float64 `json:"expansion_limit"`
	// Seed and Trips drive the stochastic profiler (defaults 1 and 100).
	Seed  uint64 `json:"seed"`
	Trips int    `json:"trips"`
	// Verify runs the static schedule verifier over the result. A schedule
	// with Error-severity diagnostics is rejected with a 422 verify_failed
	// error listing the violated rule IDs; advisory diagnostics ride along
	// in the response.
	Verify bool `json:"verify"`
	// Inline enables demand-driven inline-on-absorb: the body's functions
	// are resolved into a program and calls whose callee fits the default
	// budgets are spliced into the growing treegions. The functions must
	// form a valid program: names unique, every named callee present, call
	// arities matching the callee signatures.
	Inline bool `json:"inline"`
}

// Normalize fills every default of c once and resolves its names. It
// returns c in normal form, where two configs that ask for one compile are
// equal, and the compile configuration c names:
//
//   - region tree, heuristic globalweight and machine 4U;
//   - the tail-duplication bounds of core.DefaultTDConfig, a zero
//     expansion limit meaning its 2.0;
//   - renaming on, and dominator parallelism on for tree-td;
//   - seed 0 is 1, and trips of 0 or fewer are 100.
//
// Superblock, if-conversion and inlining bounds stay zero. An unknown
// region, heuristic or machine is an error.
func (c CompileConfig) Normalize() (CompileConfig, eval.Config, error) {
	if c.Region == "" {
		c.Region = "tree"
	}
	if c.Heuristic == "" {
		c.Heuristic = "globalweight"
	}
	if c.Machine == "" {
		c.Machine = "4U"
	}
	td := core.DefaultTDConfig()
	if c.ExpansionLimit == 0 {
		c.ExpansionLimit = td.ExpansionLimit
	}
	td.ExpansionLimit = c.ExpansionLimit
	if c.Rename == nil {
		on := true
		c.Rename = &on
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Trips <= 0 {
		c.Trips = 100
	}
	kind, err := eval.ParseRegionKind(c.Region)
	if err != nil {
		return c, eval.Config{}, err
	}
	h, err := core.ParseHeuristic(c.Heuristic)
	if err != nil {
		return c, eval.Config{}, err
	}
	m, ok := machine.ByName(c.Machine)
	if !ok {
		return c, eval.Config{}, fmt.Errorf("unknown machine %q (want 1U, 4U, 8U or 16U)", c.Machine)
	}
	c.DomPar = c.DomPar || kind == eval.TreegionTD
	return c, eval.Config{
		Kind:                 kind,
		Heuristic:            h,
		Machine:              m,
		Rename:               *c.Rename,
		DominatorParallelism: c.DomPar,
		TD:                   td,
		IfConvert:            c.IfConvert,
	}, nil
}

// CompileBody is the POST /v1/compile body, and the POST /v1/jobs payload:
// one function, or a program of several, as textual IR (the
// internal/irtext grammar), its configuration, and two fields that only
// shape the response.
type CompileBody struct {
	IR string `json:"ir"`
	CompileConfig
	// Schedules requests the textual schedules in the response.
	Schedules bool `json:"schedules"`
	// Trace requests the per-phase compile trace in the response.
	Trace bool `json:"trace"`
}

// BatchBody is the POST /v1/compile-batch body: a list of functions
// compiled under one shared configuration.
type BatchBody struct {
	Functions []BatchFunction `json:"functions"`
	CompileConfig
	Schedules bool `json:"schedules"`
}

// BatchFunction is one function of a batch.
type BatchFunction struct {
	IR string `json:"ir"`
}

// The accepted body fields, quoted in the structured 400 a body with an
// unknown field receives.
var (
	compileFields = []string{
		"ir", "region", "heuristic", "machine", "rename", "dompar", "ifconvert",
		"expansion_limit", "seed", "trips", "schedules", "trace", "verify", "inline",
	}
	batchFields = []string{
		"functions", "region", "heuristic", "machine", "rename", "dompar",
		"ifconvert", "expansion_limit", "seed", "trips", "schedules", "verify",
		"inline",
	}
)

// maxBatchFunctions bounds one batch; bigger workloads belong on several
// requests, which the router spreads across replicas.
const maxBatchFunctions = 1024

// Compile is a /v1/compile body in normal form: its config fields filled
// by Normalize, and the compile configuration they name.
type Compile struct {
	CompileBody
	Config eval.Config
}

// Batch is a /v1/compile-batch body in normal form.
type Batch struct {
	BatchBody
	Config eval.Config
}

// DecodeCompile reads a /v1/compile body or POST /v1/jobs payload into its
// normal form. It refuses, in this order, what the body decoder refuses
// (400 bad_json or unknown_field, ranked as DESIGN.md §30 says), a
// missing "ir" (400 missing_field) and a config Normalize refuses (400
// bad_config).
func DecodeCompile(data []byte) (*Compile, *Failure) {
	var c Compile
	if f := decodeCompileBody(data, &c.CompileBody); f != nil {
		return nil, f
	}
	if c.IR == "" {
		return nil, Fail(http.StatusBadRequest, "missing_field", fmt.Errorf("missing \"ir\" field"))
	}
	var err error
	if c.CompileConfig, c.Config, err = c.CompileConfig.Normalize(); err != nil {
		return nil, Fail(http.StatusBadRequest, "bad_config", err)
	}
	return &c, nil
}

// DecodeBatch reads a /v1/compile-batch body into its normal form. It
// refuses what DecodeCompile refuses, a missing or empty "functions" list,
// more than maxBatchFunctions functions (400 batch_too_large) and a
// function without "ir".
func DecodeBatch(data []byte) (*Batch, *Failure) {
	var b Batch
	if f := decodeBatchBody(data, &b.BatchBody); f != nil {
		return nil, f
	}
	if len(b.Functions) == 0 {
		return nil, Fail(http.StatusBadRequest, "missing_field", fmt.Errorf("missing or empty \"functions\" field"))
	}
	if len(b.Functions) > maxBatchFunctions {
		return nil, Fail(http.StatusBadRequest, "batch_too_large",
			fmt.Errorf("%d functions in one batch (max %d)", len(b.Functions), maxBatchFunctions))
	}
	for i, fn := range b.Functions {
		if fn.IR == "" {
			return nil, Fail(http.StatusBadRequest, "missing_field", fmt.Errorf("functions[%d]: missing \"ir\" field", i))
		}
	}
	var err error
	if b.CompileConfig, b.Config, err = b.CompileConfig.Normalize(); err != nil {
		return nil, Fail(http.StatusBadRequest, "bad_config", err)
	}
	return &b, nil
}

// Key is the request key: a SHA-256 over the IR text byte for byte, the
// profiling seed and trips, the config's fingerprint and the verify flag,
// but not schedules or trace, which only shape the response. The
// "/request" tag keeps it apart from every content key (DESIGN.md §27).
// treegiond caches a single-function compile under it, and the router
// shards the body by it.
func (c *Compile) Key() compcache.Key {
	return keyOf(bytesOf(c.IR), &c.CompileConfig, c.Config, "/request")
}

// Key is the batch's shard key: the request key's construction over every
// function's text, each after its length, tagged "/batch".
func (b *Batch) Key() compcache.Key {
	n := 0
	for _, fn := range b.Functions {
		n += 8 + len(fn.IR)
	}
	texts := make([]byte, 0, n)
	for _, fn := range b.Functions {
		texts = binary.LittleEndian.AppendUint64(texts, uint64(len(fn.IR)))
		texts = append(texts, fn.IR...)
	}
	return keyOf(texts, &b.CompileConfig, b.Config, "/batch")
}

// keyOf hashes text, c's seed and trips as two little-endian u64s, and
// cfg's fingerprint, tagged "/verify" when c verifies and then with tag.
func keyOf(text []byte, c *CompileConfig, cfg eval.Config, tag string) compcache.Key {
	var params [16]byte
	binary.LittleEndian.PutUint64(params[:8], c.Seed)
	binary.LittleEndian.PutUint64(params[8:], uint64(c.Trips))
	fp := cfg.Fingerprint()
	if c.Verify {
		fp += "/verify"
	}
	return compcache.KeyOfBytes(text, params[:], fp+tag)
}
