package llm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

type fakeClient struct{ name string }

func (f fakeClient) Name() string { return f.name }
func (f fakeClient) Do(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	return Response{
		Text:         "ok:" + f.name,
		Usage:        Usage{PromptTokens: len(req.UserPrompt()), CompletionTokens: 3},
		Latency:      time.Millisecond,
		FinishReason: FinishStop,
	}, nil
}

func TestRegistryRegisterGet(t *testing.T) {
	r := NewRegistry()
	r.Register(fakeClient{name: "a"})
	r.Register(fakeClient{name: "b"})
	c, err := r.Get("a")
	if err != nil || c.Name() != "a" {
		t.Fatalf("Get(a) = %v, %v", c, err)
	}
	if _, err := r.Get("z"); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("Get(z) error = %v, want ErrUnknownModel", err)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
}

func TestRegistryReplace(t *testing.T) {
	r := NewRegistry()
	r.Register(fakeClient{name: "a"})
	r.Register(fakeClient{name: "a"}) // replace, not duplicate
	if len(r.Names()) != 1 {
		t.Errorf("Names = %v", r.Names())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.Register(fakeClient{name: string(rune('a' + i))})
			r.Names()
			r.Get("a")
		}(i)
	}
	wg.Wait()
	if len(r.Names()) != 8 {
		t.Errorf("Names = %v", r.Names())
	}
}

func TestModelNames(t *testing.T) {
	if len(ModelNames) != 5 || ModelNames[0] != GPT4 || ModelNames[4] != Gemini {
		t.Errorf("ModelNames = %v", ModelNames)
	}
}

func TestNewRequestAndComplete(t *testing.T) {
	req := NewRequest("hello")
	if len(req.Messages) != 1 || req.Messages[0].Role != RoleUser || req.Messages[0].Content != "hello" {
		t.Fatalf("NewRequest = %+v", req)
	}
	if got := req.UserPrompt(); got != "hello" {
		t.Errorf("UserPrompt = %q", got)
	}
	text, err := Complete(context.Background(), fakeClient{name: "m"}, "hello")
	if err != nil || text != "ok:m" {
		t.Errorf("Complete = %q, %v", text, err)
	}
}

func TestRequestWithSystem(t *testing.T) {
	req := Request{Messages: []Message{
		{Role: RoleSystem, Content: "system text"},
		{Role: RoleUser, Content: "user text"},
	}}
	if got := req.UserPrompt(); got != "user text" {
		t.Errorf("UserPrompt = %q", got)
	}
}

func TestRequestUserPromptMultiple(t *testing.T) {
	req := Request{Messages: []Message{
		{Role: RoleUser, Content: "a"},
		{Role: RoleAssistant, Content: "ignored"},
		{Role: RoleUser, Content: "b"},
	}}
	if got := req.UserPrompt(); got != "a\nb" {
		t.Errorf("UserPrompt = %q", got)
	}
}

func TestRequestHash(t *testing.T) {
	base := NewRequest("prompt")
	if base.Hash() != NewRequest("prompt").Hash() {
		t.Error("identical requests hash differently")
	}
	distinct := []Request{
		NewRequest("other"),
		{Messages: []Message{{Role: RoleSystem, Content: "sys"}, base.Messages[0]}},
		{Messages: base.Messages, MaxTokens: 5},
		{Messages: base.Messages, Temperature: f64(0)},
		{Messages: base.Messages, Temperature: f64(1)},
		{Messages: base.Messages, Seed: i64(7)},
	}
	seen := map[uint64]int{base.Hash(): -1}
	for i, r := range distinct {
		h := r.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("request %d collides with %d", i, prev)
		}
		seen[h] = i
	}
}

func f64(v float64) *float64 { return &v }
func i64(v int64) *int64     { return &v }

func TestUsage(t *testing.T) {
	u := Usage{PromptTokens: 10, CompletionTokens: 5}
	if u.Total() != 15 {
		t.Errorf("Total = %d", u.Total())
	}
	u.Add(Usage{PromptTokens: 1, CompletionTokens: 2})
	if u.PromptTokens != 11 || u.CompletionTokens != 7 {
		t.Errorf("Add = %+v", u)
	}
}

func TestErrorMessage(t *testing.T) {
	cases := []struct {
		err  *Error
		want []string
	}{
		{&Error{Status: 429, Code: "rate_limited", Message: "slow down"}, []string{"429", "rate_limited", "slow down"}},
		{&Error{Status: 500}, []string{"500"}},
		{&Error{Code: "transport", Err: errors.New("boom")}, []string{"transport", "boom"}},
		{&Error{}, []string{"request failed"}},
	}
	for _, tc := range cases {
		got := tc.err.Error()
		for _, want := range tc.want {
			if !strings.Contains(got, want) {
				t.Errorf("%+v: Error() = %q lacks %q", tc.err, got, want)
			}
		}
	}
}

func TestErrorRetryable(t *testing.T) {
	cases := map[int]bool{
		400: false, 401: false, 403: false, 404: false,
		408: true, 429: true,
		500: true, 501: false, 502: true, 503: true, 504: true,
	}
	for status, want := range cases {
		e := &Error{Status: status}
		if got := e.Retryable(); got != want {
			t.Errorf("status %d: Retryable = %v, want %v", status, got, want)
		}
	}
	// Transport failures retry — unless the caller cancelled.
	if !(&Error{Status: 0, Err: errors.New("conn reset")}).Retryable() {
		t.Error("transport failure should be retryable")
	}
	if (&Error{Status: 0, Err: context.Canceled}).Retryable() {
		t.Error("cancellation must not be retryable")
	}
}

func TestIsRetryable(t *testing.T) {
	if !IsRetryable(&Error{Status: 429}) {
		t.Error("*Error 429 should be retryable")
	}
	if !IsRetryable(fmt.Errorf("completing x: %w", &Error{Status: 503})) {
		t.Error("wrapped *Error 503 should be retryable")
	}
	if IsRetryable(errors.New("plain")) {
		t.Error("plain errors are not retryable")
	}
	if IsRetryable(context.Canceled) {
		t.Error("cancellation is not retryable")
	}
}

func TestErrorUnwrap(t *testing.T) {
	inner := errors.New("socket closed")
	err := fmt.Errorf("outer: %w", &Error{Code: "transport", Err: inner})
	if !errors.Is(err, inner) {
		t.Error("Unwrap chain broken")
	}
	var le *Error
	if !errors.As(err, &le) || le.Code != "transport" {
		t.Errorf("errors.As failed: %v", le)
	}
}
