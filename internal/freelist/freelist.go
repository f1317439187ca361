// Package freelist keeps a few objects for reuse by code whose scratch
// memory dies with each call, such as a lexer's token slice or a parser's
// rule memo.
//
// A sync.Pool would serve, but it holds any number of objects, and what it
// holds survives one garbage collection in its victim cache, so a heap
// measured right after a collection still counts it. A List holds at most
// maxKept objects, and its callers put back only objects under their own size
// cap, so what it keeps between calls is bounded in count and in size.
package freelist

import "sync"

// maxKept is the most objects a List keeps. The callers lex, parse and search
// on at most a few goroutines per CPU at once, each holding one or two
// objects; an object needed beyond maxKept is allocated and later dropped.
const maxKept = 8

// List is a LIFO free list of at most maxKept objects. It is safe for
// concurrent use; the zero value is an empty list.
type List[T any] struct {
	mu   sync.Mutex
	n    int
	free [maxKept]*T
}

// Get returns the most recently put object, or a new zero T when the list
// is empty.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	if l.n == 0 {
		l.mu.Unlock()
		return new(T)
	}
	l.n--
	x := l.free[l.n]
	l.free[l.n] = nil
	l.mu.Unlock()
	return x
}

// Put offers x for reuse; a full list drops it. The caller must not use x
// afterwards, and should drop an object larger than it means to keep
// instead of putting it.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	if l.n < maxKept {
		l.free[l.n] = x
		l.n++
	}
	l.mu.Unlock()
}
