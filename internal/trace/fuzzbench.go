package trace

import "rarsim/internal/isa"

// RandomBenchmark derives a random but valid synthetic benchmark from an
// arbitrary byte string: instruction mixes, dependence distances, stream
// patterns and branch placements all vary with raw, while staying inside
// the spec's validation rules. It drives the random-program fuzz tests
// (TestRandomProgramsRun and the block-synthesis tests): the same raw
// bytes always produce the same benchmark, so a failing input reported by
// testing/quick reproduces exactly.
func RandomBenchmark(raw []byte) Benchmark {
	next := func(i int) int {
		if len(raw) == 0 {
			return 7
		}
		return int(raw[i%len(raw)])
	}
	bodyLen := 4 + next(0)%10
	var body []Op
	for i := 0; i < bodyLen; i++ {
		r := next(i+1) % 100
		dep := next(i+2)%4 + 1
		switch {
		case r < 25:
			body = append(body, Op{Class: isa.Load, Stream: next(i+3) % 2})
		case r < 35:
			body = append(body, Op{Class: isa.Store, Stream: next(i+3) % 2, Dep1: dep})
		case r < 45 && i+2 < bodyLen:
			body = append(body, Op{Class: isa.Branch,
				TakenProb: float64(next(i+4)%50) / 100, SkipLen: 1, DepLoad: r%2 == 0})
		case r < 60:
			body = append(body, Op{Class: isa.FpAdd, Dep1: dep})
		case r < 70:
			body = append(body, Op{Class: isa.IntDiv, Dep1: dep})
		default:
			body = append(body, Op{Class: isa.IntAlu, Dep1: dep, Dep2: next(i+5) % 3})
		}
	}
	patterns := []Pattern{Seq, Strided, Chase, Rand}
	return Benchmark{
		Name: "fuzz",
		Kernels: []Kernel{{
			Name:       "k",
			Iterations: 2 + next(6)%40,
			Streams: []StreamSpec{
				{Pattern: patterns[next(7)%4], Region: 1 << (14 + next(8)%10), Stride: 8},
				{Pattern: patterns[next(9)%4], Region: 1 << (14 + next(10)%8), Stride: 16},
			},
			Body: body,
		}},
	}
}
