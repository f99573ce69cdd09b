package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// FuzzMatrixRequest feeds the POST /matrix decoder arbitrary bodies,
// seeded with the cases of TestValidation. Every body must either be
// rejected or resolve to at most maxCells cells within the per-cell
// instruction bounds. Decoding never simulates anything.
func FuzzMatrixRequest(f *testing.F) {
	good, err := json.Marshal(testRequest())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(good),
		`{}`,
		`{"benches": ["no-such-bench"]}`,
		`{"schemes": ["RAR", "WRONG"]}`,
		`{"cores": ["core-99"]}`,
		`{not json`,
		`{"instructions": 1000000000000000000}`,
		`{"warmup": 100000001}`,
		`{"unknown": 1}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeMatrix(nil, io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			return
		}
		if n := len(spec.keys); n == 0 || n > maxCells {
			t.Fatalf("resolved %d cells, want 1..%d", n, maxCells)
		}
		if spec.opt.Instructions > maxInstructions || spec.opt.Warmup > maxInstructions {
			t.Fatalf("resolved %d instructions / %d warmup past the %d limit",
				spec.opt.Instructions, spec.opt.Warmup, maxInstructions)
		}
	})
}
