package freelist

import (
	"sync"
	"testing"
)

func TestGetReturnsLastPut(t *testing.T) {
	var l List[int]
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Fatal("Get did not return the last object put")
	}
	if got := l.Get(); got != a {
		t.Fatal("Get did not return the first object put")
	}
	if got := l.Get(); got == a || got == b {
		t.Fatal("Get on an empty list returned a kept object")
	}
}

func TestListKeepsAtMostCap(t *testing.T) {
	var l List[int]
	put := make(map[*int]bool)
	for i := 0; i < maxKept+3; i++ {
		x := new(int)
		put[x] = true
		l.Put(x)
	}
	kept := 0
	for i := 0; i < maxKept+3; i++ {
		if put[l.Get()] {
			kept++
		}
	}
	if kept != maxKept {
		t.Fatalf("list kept %d objects, want %d", kept, maxKept)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	var l List[[]byte]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b := l.Get()
				*b = append((*b)[:0], byte(g))
				if len(*b) != 1 || (*b)[0] != byte(g) {
					t.Error("object shared between holders")
					return
				}
				l.Put(b)
			}
		}(g)
	}
	wg.Wait()
}
