package store

import (
	"sync"
	"testing"

	"treegion/internal/eval"
	"treegion/internal/progen"
)

// headline holds the suite's headline results, compiled once per process.
var headline struct {
	once sync.Once
	frs  []*eval.FunctionResult
	err  error
}

// headlineResults compiles every function of the eight suite presets
// under the paper's headline configuration (treegions, global weight, 4U).
func headlineResults(b *testing.B) []*eval.FunctionResult {
	headline.once.Do(func() {
		progs, err := progen.GenerateAll()
		if err != nil {
			headline.err = err
			return
		}
		for _, prog := range progs {
			profs, err := eval.ProfileProgram(prog)
			if err != nil {
				headline.err = err
				return
			}
			res, err := eval.CompileProgram(prog, profs, eval.DefaultConfig())
			if err != nil {
				headline.err = err
				return
			}
			headline.frs = append(headline.frs, res.Funcs...)
		}
	})
	if headline.err != nil {
		b.Fatal(headline.err)
	}
	return headline.frs
}

// BenchmarkColdStore measures the tgart2 codec over the suite's headline
// results. encode writes every result's store entry, magic and payload,
// as Store.Put does before its file write; decode reads every entry's
// payload back into a result, as Store.Get does after its file read.
// ms/pass is the cost of one pass over the suite's functions.
func BenchmarkColdStore(b *testing.B) {
	frs := headlineResults(b)
	entries := make([][]byte, len(frs))
	for i, fr := range frs {
		e, err := encodeEntry(fr)
		if err != nil {
			b.Fatal(err)
		}
		entries[i] = e
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, fr := range frs {
				if _, err := encodeEntry(fr); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/pass")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, e := range entries {
				if _, err := decode(e[len(magic):]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/pass")
	})
}
