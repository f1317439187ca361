package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/sqllex"
)

// requestTasks are the eval endpoints the serve workloads call, each drawn
// with equal probability: the five sql-input tasks, equiv with statement
// pairs, and state with DML scripts (which the simulated models execute on
// the engine's in-memory store, so the engine sees writes as well as reads).
var requestTasks = []string{"syntax", "tokens", "fill", "perf", "explain", "equiv", "state"}

// maxStatements bounds the statements of one eval request; each request
// carries 1..maxStatements, drawn uniformly.
const maxStatements = 8

// item is one distinct example input of the pool: one statement, or a
// [left, right] pair for pair-input tasks. For serve-unique, pre and post
// hold the first statement split around its first numeric literal.
type item struct {
	sql       []string
	pre, post string
}

// pool holds, per task, the distinct inputs of benchmark cells.
type pool struct {
	items map[string][]item
	// literalShare is the share of distinct inputs that have a numeric
	// literal to splice (the rest are left out of serve-unique).
	literalShare float64
}

// newPool collects every distinct input of every dataset cell of the
// request tasks in the given benchmarks. With unique set, it keeps only
// inputs whose first statement lexes and has a numeric literal, split
// around that literal once here so that requests cost no lexing while the
// loop is timed.
func newPool(unique bool, bs ...*core.Benchmark) (*pool, error) {
	p := &pool{items: make(map[string][]item, len(requestTasks))}
	var total, spliceable int
	for _, id := range requestTasks {
		task, ok := core.TaskByID(id)
		if !ok {
			return nil, fmt.Errorf("task %q is not registered", id)
		}
		seen := make(map[string]bool)
		for _, b := range bs {
			for _, ds := range task.Datasets() {
				cell, _ := task.Cell(b, ds)
				for _, ex := range cell {
					key := strings.Join(ex.SQL, "\x00")
					if seen[key] {
						continue
					}
					seen[key] = true
					total++
					it := item{sql: ex.SQL}
					if pre, post, ok := splitAtLiteral(ex.SQL[0]); ok {
						spliceable++
						it.pre, it.post = pre, post
					} else if unique {
						continue
					}
					p.items[id] = append(p.items[id], it)
				}
			}
		}
		if len(p.items[id]) == 0 {
			return nil, fmt.Errorf("task %s: no usable inputs in the benchmark cells", id)
		}
	}
	p.literalShare = float64(spliceable) / float64(total)
	return p, nil
}

// splitAtLiteral splits sql around its first numeric literal.
func splitAtLiteral(sql string) (pre, post string, ok bool) {
	toks, err := sqllex.Lex(sql)
	if err != nil {
		return "", "", false
	}
	for _, t := range toks {
		if t.Kind == sqllex.Number {
			return sql[:t.Pos.Offset], sql[t.Pos.Offset+len(t.Text):], true
		}
	}
	return "", "", false
}

// distinct returns the number of distinct inputs in the pool.
func (p *pool) distinct() int {
	n := 0
	for _, its := range p.items {
		n += len(its)
	}
	return n
}

// request is one eval call: a task, a model, and its example inputs.
type request struct {
	task  string
	model string
	sql   [][]string
}

// body encodes the request as the POST /v1/eval/{task} JSON body.
func (r request) body() ([]byte, error) {
	if r.task == "equiv" {
		pairs := make([][2]string, len(r.sql))
		for i, s := range r.sql {
			pairs[i] = [2]string{s[0], s[1]}
		}
		return json.Marshal(struct {
			Model string      `json:"model"`
			Pairs [][2]string `json:"pairs"`
		}{r.model, pairs})
	}
	stmts := make([]string, len(r.sql))
	for i, s := range r.sql {
		stmts[i] = s[0]
	}
	return json.Marshal(struct {
		Model string   `json:"model"`
		SQL   []string `json:"sql"`
	}{r.model, stmts})
}

// gen draws one client's request sequence. Tasks, models and base inputs
// are a pure function of (seed, client), so every stream replays the same
// traffic; in unique mode every statement also carries an integer no other
// generator of the process can return.
type gen struct {
	p      *pool
	r      *rand.Rand
	unique bool
	next   int64
}

// newGen returns the generator of one client of one stream (a measured
// window or the set-up probes). Distinct (stream, client) pairs get
// disjoint ranges of 2^32 splice integers.
func newGen(p *pool, seed int64, stream, client int, unique bool) *gen {
	return &gen{
		p:      p,
		r:      rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		unique: unique,
		next:   int64(stream*maxClients+client+1) << 32,
	}
}

// maxClients bounds the clients of one stream, so splice ranges stay
// disjoint.
const maxClients = 16

// statement draws one input of the task.
func (g *gen) statement(task string) []string {
	its := g.p.items[task]
	it := its[g.r.Intn(len(its))]
	if !g.unique {
		return it.sql
	}
	out := append([]string(nil), it.sql...)
	out[0] = it.pre + strconv.FormatInt(g.next, 10) + it.post
	g.next++
	return out
}

// request draws the next request: task, model and statement count
// uniform.
func (g *gen) request() request {
	task := requestTasks[g.r.Intn(len(requestTasks))]
	model := llm.ModelNames[g.r.Intn(len(llm.ModelNames))]
	n := 1 + g.r.Intn(maxStatements)
	r := request{task: task, model: model, sql: make([][]string, n)}
	for i := range r.sql {
		r.sql[i] = g.statement(task)
	}
	return r
}

// probe draws the fixed-shape request that times a cold server: one syntax
// statement for the first model.
func (g *gen) probe() request {
	return request{task: "syntax", model: llm.ModelNames[0], sql: [][]string{g.statement("syntax")}}
}
