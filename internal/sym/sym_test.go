package sym

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestInternReturnsSameID(t *testing.T) {
	tab := NewTable()
	a := tab.Intern("JOHN")
	b := tab.Intern("JOHN")
	if a != b {
		t.Fatalf("Intern not idempotent: %d vs %d", a, b)
	}
}

func TestInternDistinctNames(t *testing.T) {
	tab := NewTable()
	a := tab.Intern("JOHN")
	b := tab.Intern("MARY")
	if a == b {
		t.Fatalf("distinct names share ID %d", a)
	}
}

func TestNameRoundTrip(t *testing.T) {
	tab := NewTable()
	names := []string{"JOHN", "MARY", "$25000", "PC#9-WAM", "≺", "∈"}
	for _, n := range names {
		id := tab.Intern(n)
		if got := tab.Name(id); got != n {
			t.Errorf("Name(Intern(%q)) = %q", n, got)
		}
	}
}

func TestLookup(t *testing.T) {
	tab := NewTable()
	if _, ok := tab.Lookup("ABSENT"); ok {
		t.Error("Lookup found an absent name")
	}
	id := tab.Intern("PRESENT")
	got, ok := tab.Lookup("PRESENT")
	if !ok || got != id {
		t.Errorf("Lookup = (%d, %v), want (%d, true)", got, ok, id)
	}
}

func TestLen(t *testing.T) {
	tab := NewTable()
	if tab.Len() != 0 {
		t.Fatalf("empty table Len = %d", tab.Len())
	}
	tab.Intern("A")
	tab.Intern("B")
	tab.Intern("A")
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
}

func TestZeroIDNeverIssued(t *testing.T) {
	tab := NewTable()
	for i := 0; i < 100; i++ {
		if id := tab.Intern(fmt.Sprintf("N%d", i)); id == None {
			t.Fatal("Intern returned the reserved zero ID")
		}
	}
}

func TestEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intern(\"\") did not panic")
		}
	}()
	NewTable().Intern("")
}

func TestUnknownIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Name(unknown) did not panic")
		}
	}()
	NewTable().Name(42)
}

func TestEach(t *testing.T) {
	tab := NewTable()
	want := []string{"A", "B", "C"}
	for _, n := range want {
		tab.Intern(n)
	}
	var got []string
	tab.Each(func(id ID, name string) bool {
		got = append(got, name)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Each visited %d names, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Each order: got[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestEachEarlyStop(t *testing.T) {
	tab := NewTable()
	tab.Intern("A")
	tab.Intern("B")
	n := 0
	tab.Each(func(ID, string) bool { n++; return false })
	if n != 1 {
		t.Errorf("Each did not stop: visited %d", n)
	}
}

func TestConcurrentIntern(t *testing.T) {
	tab := NewTable()
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup

	// Readers run Name, Len and Each while the writers intern, so the
	// race detector sees lock-free reads next to every publish.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := tab.Len()
				if n > 0 && tab.Name(ID(n)) == "" {
					t.Errorf("Name(%d) is empty", n)
				}
				seen := 0
				tab.Each(func(id ID, name string) bool {
					if id != ID(seen+1) || name != tab.Name(id) {
						t.Errorf("Each gave (%d, %q) at position %d", id, name, seen)
					}
					seen++
					return true
				})
				if seen < n {
					t.Errorf("Each visited %d names after Len reported %d", seen, n)
				}
			}
		}()
	}

	ids := make([][]ID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]ID, perG)
			for i := 0; i < perG; i++ {
				ids[g][i] = tab.Intern(fmt.Sprintf("NAME-%d", i))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d got ID %d for name %d, goroutine 0 got %d",
					g, ids[g][i], i, ids[0][i])
			}
		}
	}
	if tab.Len() != perG {
		t.Errorf("Len = %d, want %d", tab.Len(), perG)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	tab := NewTable()
	f := func(s string) bool {
		if s == "" {
			return true
		}
		return tab.Name(tab.Intern(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDistinct(t *testing.T) {
	tab := NewTable()
	f := func(a, b string) bool {
		if a == "" || b == "" {
			return true
		}
		ia, ib := tab.Intern(a), tab.Intern(b)
		return (a == b) == (ia == ib)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
