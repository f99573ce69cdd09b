package reuse

import "testing"

func TestZeroed(t *testing.T) {
	s := []int{1, 2, 3, 4}
	got := Zeroed(s, 3)
	if len(got) != 3 || &got[0] != &s[0] {
		t.Fatalf("Zeroed(cap 4, 3) did not reuse the backing array")
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("Zeroed left element %d = %d", i, v)
		}
	}
	if s[3] != 4 {
		t.Fatalf("Zeroed touched the element past n")
	}
	grown := Zeroed(s, 8)
	if len(grown) != 8 || &grown[0] == &s[0] {
		t.Fatalf("Zeroed(cap 4, 8) must allocate a fresh array")
	}
	if n := len(Zeroed[int](nil, 5)); n != 5 {
		t.Fatalf("Zeroed(nil, 5) has length %d", n)
	}
}
