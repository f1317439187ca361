// Package llm defines the structured provider API the benchmark drives
// models through. A Client accepts an llm.Request (system/user messages plus
// sampling parameters) and returns an llm.Response (text, token usage, wall
// latency, finish reason); failures surface as *llm.Error values carrying an
// HTTP-style status and a retryability classification. The package also
// provides a composable middleware chain (RetryWith, RateLimitWith,
// MaxInFlight, Cache, Instrument — see middleware.go) and a Registry of
// clients, each registered programmatically or built from a JSON model spec
// by BuildClient (spec.go), so the simulated models in llm/sim and the
// HTTP-backed client in llm/httpllm are interchangeable behind one contract.
package llm

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Role labels one chat message's author.
type Role string

// Roles.
const (
	RoleSystem    Role = "system"
	RoleUser      Role = "user"
	RoleAssistant Role = "assistant"
)

// Message is one chat-transcript entry.
type Message struct {
	Role    Role
	Content string
}

// Request is one completion request: an ordered chat transcript plus
// sampling parameters. The zero value of every parameter means "provider
// default"; pointers distinguish an explicit 0 (greedy temperature, say)
// from unset.
type Request struct {
	Messages []Message
	// Temperature is the sampling temperature; nil means provider default.
	Temperature *float64
	// MaxTokens caps the completion length; 0 means no explicit cap.
	MaxTokens int
	// Seed requests provider-side deterministic sampling; nil means unset.
	Seed *int64
}

// NewRequest wraps a single user prompt — the shape every benchmark task
// uses — into a Request.
func NewRequest(prompt string) Request {
	return Request{Messages: []Message{{Role: RoleUser, Content: prompt}}}
}

// UserPrompt concatenates the user-message contents — the string-in view of
// the request that prompt-driven backends (the simulators) consume.
func (r Request) UserPrompt() string {
	var single string
	var n int
	for _, m := range r.Messages {
		if m.Role == RoleUser {
			single = m.Content
			n++
		}
	}
	if n <= 1 {
		return single
	}
	out := ""
	for _, m := range r.Messages {
		if m.Role != RoleUser {
			continue
		}
		if out != "" {
			out += "\n"
		}
		out += m.Content
	}
	return out
}

// Hash returns a stable 64-bit digest of the request — messages and
// parameters — suitable as a memoization key.
func (r Request) Hash() uint64 {
	h := fnv.New64a()
	for _, m := range r.Messages {
		h.Write([]byte(m.Role))
		h.Write([]byte{0})
		h.Write([]byte(m.Content))
		h.Write([]byte{0})
	}
	if r.Temperature != nil {
		h.Write([]byte("t" + strconv.FormatFloat(*r.Temperature, 'g', -1, 64)))
	}
	if r.MaxTokens != 0 {
		h.Write([]byte("m" + strconv.Itoa(r.MaxTokens)))
	}
	if r.Seed != nil {
		h.Write([]byte("s" + strconv.FormatInt(*r.Seed, 10)))
	}
	return h.Sum64()
}

// Usage is the token accounting of one completion.
type Usage struct {
	PromptTokens     int
	CompletionTokens int
}

// Total returns prompt plus completion tokens.
func (u Usage) Total() int { return u.PromptTokens + u.CompletionTokens }

// Add accumulates another usage record.
func (u *Usage) Add(o Usage) {
	u.PromptTokens += o.PromptTokens
	u.CompletionTokens += o.CompletionTokens
}

// Finish reasons. Providers may report others; these are the ones the
// built-in backends produce.
const (
	FinishStop   = "stop"   // natural end of completion
	FinishLength = "length" // truncated at MaxTokens
)

// Response is one completed request.
type Response struct {
	// Text is the completion text.
	Text string
	// Model is the provider-reported model identifier (may differ from the
	// registry name, e.g. a dated snapshot id).
	Model string
	// Usage is the token accounting (simulated deterministically by llm/sim).
	Usage Usage
	// Latency is the wall time of the completion as observed by the client
	// (simulated deterministically by llm/sim).
	Latency time.Duration
	// FinishReason reports why generation stopped (FinishStop, FinishLength,
	// or a provider-specific value).
	FinishReason string
}

// Error is a typed provider failure carrying an HTTP-style status. Backends
// return *Error for anything that is a request failure rather than a caller
// bug, so middleware can classify retryability uniformly.
type Error struct {
	// Status is the HTTP-style status code (429, 503, ...). 0 means the
	// request never got an HTTP response (transport failure).
	Status int
	// Code is a short machine-readable class, e.g. "rate_limited".
	Code string
	// Message is the human-readable provider message.
	Message string
	// RetryAfter is the provider-suggested backoff (from a Retry-After
	// header); 0 when absent.
	RetryAfter time.Duration
	// Err is the underlying error, if any.
	Err error
}

// Error implements error.
func (e *Error) Error() string {
	s := "llm: "
	switch {
	case e.Status != 0 && e.Code != "":
		s += fmt.Sprintf("%d %s", e.Status, e.Code)
	case e.Status != 0:
		s += strconv.Itoa(e.Status)
	case e.Code != "":
		s += e.Code
	default:
		s += "request failed"
	}
	if e.Message != "" {
		s += ": " + e.Message
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Retryable classifies whether a retry can plausibly succeed: transport
// failures, timeouts, rate limits, and server-side errors are retryable;
// caller bugs (4xx other than 408/429) are not.
func (e *Error) Retryable() bool {
	switch e.Status {
	case 0:
		// Transport failure — but never retry on behalf of a cancelled
		// caller.
		return !errors.Is(e.Err, context.Canceled)
	case 408, 429:
		return true
	case 501:
		return false
	default:
		return e.Status >= 500
	}
}

// IsRetryable reports whether err is a retryable *Error. Non-Error values
// (context cancellation, caller bugs) are never retryable.
func IsRetryable(err error) bool {
	var le *Error
	return errors.As(err, &le) && le.Retryable()
}

// Client produces completions. Implementations must be safe for concurrent
// use and should return promptly with ctx.Err() once the context is
// cancelled.
type Client interface {
	// Name returns the model's registry/display name (e.g. "GPT4").
	Name() string
	// Do executes one completion request.
	Do(ctx context.Context, req Request) (Response, error)
}

// Complete is the thin string-in/string-out helper over Client.Do — the
// ergonomic form for call sites that don't need usage or parameters.
func Complete(ctx context.Context, c Client, prompt string) (string, error) {
	resp, err := c.Do(ctx, NewRequest(prompt))
	if err != nil {
		return "", err
	}
	return resp.Text, nil
}

// The model names evaluated in the paper.
const (
	GPT4    = "GPT4"
	GPT35   = "GPT3.5"
	Llama3  = "Llama3"
	Mistral = "MistralAI"
	Gemini  = "Gemini"
)

// ModelNames lists the evaluated models in the paper's table order.
var ModelNames = []string{GPT4, GPT35, Llama3, Mistral, Gemini}

// ErrUnknownModel is returned by Registry.Get for unregistered names.
var ErrUnknownModel = errors.New("unknown model")

// Registry holds named clients.
type Registry struct {
	mu      sync.RWMutex
	clients map[string]Client
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{clients: make(map[string]Client)}
}

// Register adds or replaces a client under its name.
func (r *Registry) Register(c Client) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clients[c.Name()] = c
}

// Get returns the client with the given name.
func (r *Registry) Get(name string) (Client, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.clients[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return c, nil
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.clients))
	for n := range r.clients {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
