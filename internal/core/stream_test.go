package core

import (
	"testing"

	"rarsim/internal/trace"
)

func testGen() *trace.Generator {
	b, err := trace.ByName("libquantum")
	if err != nil {
		panic(err)
	}
	return trace.New(b, 99)
}

func TestStreamBufSequential(t *testing.T) {
	s := newStreamBuf(nil, testGen())
	var pcs []uint64
	for i := uint64(0); i < 100; i++ {
		in, idx := s.next()
		if idx != i {
			t.Fatalf("index %d, want %d", idx, i)
		}
		pcs = append(pcs, in.PC)
	}
	if s.cursor() != 100 {
		t.Errorf("cursor = %d", s.cursor())
	}
	// Rewind and replay: identical instructions.
	s.rewind(40)
	for i := 40; i < 100; i++ {
		in, idx := s.next()
		if uint64(i) != idx || in.PC != pcs[i] {
			t.Fatalf("replay diverges at %d", i)
		}
	}
}

func TestStreamBufPeek(t *testing.T) {
	s := newStreamBuf(nil, testGen())
	pc := s.peek().PC
	in, _ := s.next()
	if in.PC != pc {
		t.Error("peek must not consume")
	}
}

func TestStreamBufRelease(t *testing.T) {
	s := newStreamBuf(nil, testGen())
	for i := 0; i < 3000; i++ {
		s.next()
	}
	s.release(2500) // compaction threshold crossed
	if s.base == 0 {
		t.Error("release never compacted")
	}
	// Rewinding to a still-retained index works.
	s.rewind(2600)
	in, idx := s.next()
	if idx != 2600 || in.PC == 0 {
		t.Errorf("post-release read: idx=%d", idx)
	}
}

func TestStreamBufPanics(t *testing.T) {
	s := newStreamBuf(nil, testGen())
	for i := 0; i < 3000; i++ {
		s.next()
	}
	s.release(2500)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("rewind past release", func() { s.rewind(10) })
	mustPanic("rewind forward", func() { s.rewind(s.cursor() + 5) })
}
