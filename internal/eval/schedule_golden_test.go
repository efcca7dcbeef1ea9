package eval

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"treegion/internal/core"
	"treegion/internal/inline"
	"treegion/internal/ir"
	"treegion/internal/machine"
	"treegion/internal/progen"
)

// updateScheduleGolden rewrites testdata/schedule_digests.txt from the
// current compiler instead of comparing against it:
//
//	go test ./internal/eval -run TestScheduleIdentityGolden -update-schedule-golden
var updateScheduleGolden = flag.Bool("update-schedule-golden", false, "rewrite testdata/schedule_digests.txt")

const scheduleGoldenPath = "testdata/schedule_digests.txt"

// scheduleDigest hashes everything a compile decides for one function: per
// region, the node order (op IDs, opcodes and operand registers, so renaming
// is pinned too), each node's home, flags, priority inputs and cycle, and
// every successor edge; then the function's time estimates, code size and
// transformation counters. Two compilers agree on the digest iff they
// produce byte-identical schedules.
func scheduleDigest(fr *FunctionResult) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putBool := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	putRegs := func(rs []ir.Reg) {
		put(int64(len(rs)))
		for _, r := range rs {
			put(int64(r.Class)<<32 | int64(uint32(r.Num)))
		}
	}
	put(int64(len(fr.Schedules)))
	for i, s := range fr.Schedules {
		r := fr.Regions[i]
		put(int64(r.Root))
		put(int64(len(r.Blocks)))
		for _, b := range r.Blocks {
			put(int64(b))
		}
		put(int64(s.Length))
		put(int64(len(s.Graph.Nodes)))
		for _, n := range s.Graph.Nodes {
			op := n.Op
			put(int64(op.ID))
			put(int64(op.Opcode))
			putRegs(op.Dests)
			putRegs(op.Srcs)
			put(int64(n.Home))
			putBool(n.Term)
			putBool(n.Spec)
			put(int64(n.Height))
			put(int64(n.ExitCount))
			put(int64(math.Float64bits(n.Weight)))
			put(int64(s.Cycle[n.Index]))
			put(int64(len(n.Succs)))
			for _, e := range n.Succs {
				put(int64(e.To.Index))
				put(int64(e.Latency))
				put(int64(e.Kind))
			}
		}
	}
	put(int64(math.Float64bits(fr.Time)))
	put(int64(math.Float64bits(fr.Copies)))
	put(int64(fr.OpsAfter))
	put(int64(fr.NumRenamed))
	put(int64(fr.NumCopies))
	put(int64(fr.NumMerged))
	put(int64(fr.NumSpeculated))
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// goldenCase is one program compiled under one configuration.
type goldenCase struct {
	label string
	prog  *progen.Program
	profs Profiles
	cfg   Config
}

// scheduleGoldenCases lists the pinned compiles: the published suite under
// the headline config, under Fig. 13's tree-td(2.0)/GW/8U with dominator
// parallelism, and under plain treegions with renaming off (the restricted
// speculation path); callhot with inlining under both treegion formers; and
// the first stress-preset function under the headline config.
func scheduleGoldenCases(t *testing.T) []goldenCase {
	t.Helper()
	profile := func(prog *progen.Program) Profiles {
		profs, err := ProfileProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		return profs
	}
	suite, err := progen.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	headline := DefaultConfig()
	fig13 := Config{
		Kind: TreegionTD, Heuristic: core.GlobalWeight, Machine: machine.EightU, Rename: true,
		DominatorParallelism: true,
		TD:                   core.TDConfig{ExpansionLimit: 2.0, PathLimit: 20, MergeLimit: 4},
	}
	noRename := DefaultConfig()
	noRename.Rename = false
	var cases []goldenCase
	for _, prog := range suite {
		profs := profile(prog)
		cases = append(cases,
			goldenCase{"tree/GW/4U", prog, profs, headline},
			goldenCase{"tree-td(2.0)/GW/8U+dp", prog, profs, fig13},
			goldenCase{"tree/GW/4U-norename", prog, profs, noRename})
	}

	p, ok := progen.PresetByName("callhot")
	if !ok {
		t.Fatal("callhot preset not registered")
	}
	callhot, err := progen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	chProfs := profile(callhot)
	resolved, err := ir.NewProgram(callhot.Funcs)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []RegionKind{Treegion, TreegionTD} {
		c := DefaultConfig()
		c.Kind = kind
		c.Inline = inline.DefaultConfig()
		c.InlineEnv = &inline.Env{Prog: resolved, Profiles: chProfs}
		cases = append(cases, goldenCase{kind.String() + "/GW/4U+inline", callhot, chProfs, c})
	}

	sp := progen.Stress()
	sp.NumFuncs = 1
	stress, err := progen.Generate(sp)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, goldenCase{"tree/GW/4U", stress, profile(stress), headline})
	return cases
}

// TestScheduleIdentityGolden pins the exact schedules the compiler
// produces. The digests in testdata/schedule_digests.txt were generated
// before the per-function compile context replaced the function-sized
// per-region tables; any change to node order, homes, cycles, edges,
// renaming or the time estimate shows up as a digest mismatch. Each
// program compiles on one arena shared across its functions, as a
// pipeline worker does.
func TestScheduleIdentityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the suite under three configs plus callhot and a stress function")
	}
	var got []string
	for _, gc := range scheduleGoldenCases(t) {
		ar := NewArena()
		for i, orig := range gc.prog.Funcs {
			fr, err := CompileFunctionArena(orig.Clone(), gc.profs[i].Clone(), gc.cfg, ar)
			if err != nil {
				t.Fatalf("%s %s: %v", gc.label, orig.Name, err)
			}
			got = append(got, fmt.Sprintf("%s %s %s", gc.label, orig.Name, scheduleDigest(fr)))
		}
	}
	if *updateScheduleGolden {
		if err := os.WriteFile(scheduleGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(scheduleGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("schedule digest changed:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d function digests differ from %s", bad, len(got), scheduleGoldenPath)
	}
}
