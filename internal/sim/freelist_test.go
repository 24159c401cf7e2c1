package sim

import "testing"

// TestFreeList: values come back last in, first out; Put refuses a value
// once the list holds its bound; Any sees exactly the held values; Get
// zeroes the slot it vacates, so a popped value is no longer reachable
// from the list.
func TestFreeList(t *testing.T) {
	var l FreeList[*int]
	a, b, c := new(int), new(int), new(int)
	for i, v := range []*int{a, b} {
		if !l.Put(v, 2) {
			t.Fatalf("Put #%d refused below the bound", i)
		}
	}
	if l.Put(c, 2) {
		t.Fatal("Put kept a value past the bound")
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if !l.Any(func(v *int) bool { return v == a }) || l.Any(func(v *int) bool { return v == c }) {
		t.Fatal("Any does not match exactly the values the list holds")
	}
	for _, want := range []*int{b, a} {
		got, ok := l.Get()
		if !ok || got != want {
			t.Fatalf("Get = %p, %v; want %p (LIFO)", got, ok, want)
		}
	}
	if got, ok := l.Get(); ok || got != nil {
		t.Fatalf("Get on an empty list = %p, %v; want nil, false", got, ok)
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", l.Len())
	}
	for i, v := range l.items[:cap(l.items)] {
		if v != nil {
			t.Fatalf("vacated slot %d still holds %p", i, v)
		}
	}
}

// TestFreeListAllocs: a warm Get/Put pair allocates nothing.
func TestFreeListAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var l FreeList[*event]
	l.Put(new(event), 1)
	n := testing.AllocsPerRun(1000, func() {
		e, _ := l.Get()
		l.Put(e, 1)
	})
	if n != 0 {
		t.Fatalf("Get → Put: %.2f allocs, want 0", n)
	}
}
