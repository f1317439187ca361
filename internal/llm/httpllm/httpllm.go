// Package httpllm is the HTTP-backed llm.Client: an OpenAI-compatible
// chat-completions client, so the benchmark and the serving layer can drive
// real model endpoints (or any stub speaking the same wire format) behind
// the same contract the simulators implement. Failures map to *llm.Error
// with the response's HTTP status and Retry-After hint, which is what the
// llm.RetryWith middleware classifies on.
package httpllm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/llm"
)

// Config controls client construction.
type Config struct {
	// BaseURL is the API root; the client posts to BaseURL +
	// "/chat/completions". Required.
	BaseURL string
	// Model is the model identifier sent in the request payload. Required.
	Model string
	// Name is the registry/display name; defaults to Model.
	Name string
	// APIKey is the bearer token. When empty, APIKeyEnv is consulted; when
	// both are empty no Authorization header is sent (local stubs).
	APIKey string
	// APIKeyEnv names the environment variable holding the key.
	APIKeyEnv string
	// Timeout bounds each request (default 60s).
	Timeout time.Duration
	// HTTPClient overrides the transport (tests); nil means a dedicated
	// http.Client.
	HTTPClient *http.Client
	// MaxResponseBytes bounds response bodies (default 4 MiB).
	MaxResponseBytes int64
}

// Client is an OpenAI-compatible chat-completions client. It is stateless
// beyond its configuration and safe for concurrent use.
type Client struct {
	cfg Config
	url string
	key string
}

// New validates the configuration and builds the client.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("httpllm: base URL is required")
	}
	if cfg.Model == "" {
		return nil, fmt.Errorf("httpllm: model id is required")
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Model
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.MaxResponseBytes <= 0 {
		cfg.MaxResponseBytes = 4 << 20
	}
	key := cfg.APIKey
	if key == "" && cfg.APIKeyEnv != "" {
		key = os.Getenv(cfg.APIKeyEnv)
	}
	return &Client{
		cfg: cfg,
		url: strings.TrimSuffix(cfg.BaseURL, "/") + "/chat/completions",
		key: key,
	}, nil
}

// Factory adapts New to the llm.Spec construction surface (provider "http").
func Factory(spec llm.Spec) (llm.Client, error) {
	model := spec.Model
	if model == "" {
		model = spec.Name
	}
	return New(Config{
		BaseURL:   spec.BaseURL,
		Model:     model,
		Name:      spec.Name,
		APIKeyEnv: spec.APIKeyEnv,
		Timeout:   time.Duration(spec.TimeoutMS) * time.Millisecond,
	})
}

// Name implements llm.Client.
func (c *Client) Name() string { return c.cfg.Name }

// Wire format: the chat-completions subset the client speaks.

type wireMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

type wireRequest struct {
	Model       string        `json:"model"`
	Messages    []wireMessage `json:"messages"`
	Temperature *float64      `json:"temperature,omitempty"`
	MaxTokens   int           `json:"max_tokens,omitempty"`
	Seed        *int64        `json:"seed,omitempty"`
}

type wireResponse struct {
	Model   string `json:"model"`
	Choices []struct {
		Message      wireMessage `json:"message"`
		FinishReason string      `json:"finish_reason"`
	} `json:"choices"`
	Usage struct {
		PromptTokens     int `json:"prompt_tokens"`
		CompletionTokens int `json:"completion_tokens"`
	} `json:"usage"`
}

type wireError struct {
	Error struct {
		Message string `json:"message"`
		Type    string `json:"type"`
		Code    any    `json:"code"`
	} `json:"error"`
}

// Do implements llm.Client: one POST to /chat/completions.
func (c *Client) Do(ctx context.Context, req llm.Request) (llm.Response, error) {
	if err := ctx.Err(); err != nil {
		return llm.Response{}, err
	}
	body := wireRequest{
		Model:       c.cfg.Model,
		Temperature: req.Temperature,
		MaxTokens:   req.MaxTokens,
		Seed:        req.Seed,
	}
	for _, m := range req.Messages {
		body.Messages = append(body.Messages, wireMessage{Role: string(m.Role), Content: m.Content})
	}
	payload, err := json.Marshal(body)
	if err != nil {
		// Typed, non-retryable: a request that cannot be encoded fails
		// identically on every attempt, and the 400 gives serve and the
		// breaker an honest classification instead of a generic failure.
		return llm.Response{}, &llm.Error{
			Status: http.StatusBadRequest, Code: "invalid_request",
			Message: "encoding request", Err: err,
		}
	}

	rctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(rctx, http.MethodPost, c.url, bytes.NewReader(payload))
	if err != nil {
		return llm.Response{}, &llm.Error{
			Status: http.StatusBadRequest, Code: "invalid_request",
			Message: "building request for " + c.url, Err: err,
		}
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.key != "" {
		hreq.Header.Set("Authorization", "Bearer "+c.key)
	}

	start := time.Now()
	hresp, err := c.cfg.HTTPClient.Do(hreq)
	if err != nil {
		// The caller's own cancellation is not a provider failure.
		if cerr := ctx.Err(); cerr != nil {
			return llm.Response{}, cerr
		}
		if errors.Is(err, context.DeadlineExceeded) {
			return llm.Response{}, &llm.Error{
				Status: http.StatusRequestTimeout, Code: "request_timeout",
				Message: fmt.Sprintf("no response within %v", c.cfg.Timeout), Err: err,
			}
		}
		return llm.Response{}, &llm.Error{Code: "transport", Message: "request failed", Err: err}
	}
	defer hresp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hresp.Body, c.cfg.MaxResponseBytes))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return llm.Response{}, cerr
		}
		return llm.Response{}, &llm.Error{Code: "transport", Message: "reading response", Err: err}
	}
	if hresp.StatusCode < 200 || hresp.StatusCode > 299 {
		return llm.Response{}, statusError(hresp, raw)
	}

	var wr wireResponse
	if err := json.Unmarshal(raw, &wr); err != nil {
		return llm.Response{}, &llm.Error{
			Status: hresp.StatusCode, Code: "bad_response",
			Message: "decoding completion body", Err: err,
		}
	}
	if len(wr.Choices) == 0 {
		return llm.Response{}, &llm.Error{
			Status: hresp.StatusCode, Code: "bad_response", Message: "no choices in completion",
		}
	}
	choice := wr.Choices[0]
	finish := choice.FinishReason
	if finish == "" {
		finish = llm.FinishStop
	}
	return llm.Response{
		Text:  choice.Message.Content,
		Model: wr.Model,
		Usage: llm.Usage{
			PromptTokens:     wr.Usage.PromptTokens,
			CompletionTokens: wr.Usage.CompletionTokens,
		},
		Latency:      time.Since(start),
		FinishReason: finish,
	}, nil
}

// statusError maps a non-2xx response to *llm.Error, mining the standard
// OpenAI error envelope and the Retry-After header when present.
func statusError(hresp *http.Response, raw []byte) *llm.Error {
	le := &llm.Error{Status: hresp.StatusCode, Code: codeForStatus(hresp.StatusCode)}
	var we wireError
	if err := json.Unmarshal(raw, &we); err == nil && we.Error.Message != "" {
		le.Message = we.Error.Message
		if we.Error.Type != "" {
			le.Code = we.Error.Type
		}
	} else if len(raw) > 0 {
		msg := string(raw)
		if len(msg) > 200 {
			msg = msg[:200]
		}
		le.Message = strings.TrimSpace(msg)
	}
	if ra := hresp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.ParseFloat(ra, 64); err == nil && secs >= 0 {
			le.RetryAfter = time.Duration(secs * float64(time.Second))
		}
	}
	return le
}

func codeForStatus(status int) string {
	switch status {
	case http.StatusTooManyRequests:
		return "rate_limited"
	case http.StatusUnauthorized, http.StatusForbidden:
		return "auth"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusRequestTimeout:
		return "request_timeout"
	default:
		if status >= 500 {
			return "server_error"
		}
		return "request_error"
	}
}
