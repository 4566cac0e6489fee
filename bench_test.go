// Benchmark harness for the reproduction. The E-series regenerates
// the paper's Section 7 feasibility artifacts under measurement; the
// B-series quantifies the claims the paper makes qualitatively (see
// EXPERIMENTS.md for the index and DESIGN.md section 6 for the
// mapping to paper artifacts).
//
// Run with:
//
//	go test -bench=. -benchmem .
package ontoaccess

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ontoaccess/internal/core"
	"ontoaccess/internal/endpoint"
	"ontoaccess/internal/r3m"
	"ontoaccess/internal/rdb"
	"ontoaccess/internal/rdb/sqlexec"
	"ontoaccess/internal/rdb/sqlparser"
	"ontoaccess/internal/rdb/wal"
	"ontoaccess/internal/rdf"
	"ontoaccess/internal/sparql"
	"ontoaccess/internal/triplestore"
	"ontoaccess/internal/update"
	"ontoaccess/internal/workload"
)

func newMediator(b *testing.B, opts core.Options) *core.Mediator {
	b.Helper()
	m, err := workload.NewMediator(opts)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func exec(b *testing.B, m *core.Mediator, src string) {
	b.Helper()
	if _, err := m.ExecuteString(src); err != nil {
		b.Fatalf("request failed: %v\n%s", err, src)
	}
}

// ---- E-series: the paper's feasibility artifacts under measurement ----

// BenchmarkE1_MappingLoad measures loading and validating the Table 1
// mapping (experiment E1).
func BenchmarkE1_MappingLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r3m.Load(workload.MappingTTL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_InsertDataSingle measures the Listing 9 -> Listing 10
// translation and execution (experiment E2).
func BenchmarkE2_InsertDataSingle(b *testing.B) {
	m := newMediator(b, core.Options{})
	exec(b, m, seedTeams(1, 1000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec(b, m, authorInsert(i+1, i%1000+1))
	}
}

// BenchmarkE3_InsertDataTeam measures the Listing 13 -> Listing 14
// pair (experiment E3).
func BenchmarkE3_InsertDataTeam(b *testing.B) {
	m := newMediator(b, core.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec(b, m, fmt.Sprintf(`%s
INSERT DATA { ex:team%d foaf:name "Team %d" ; ont:teamCode "T%d" . }`,
			workload.Prologue, i+1, i+1, i+1))
	}
}

// BenchmarkE4_InsertDataFull measures the Listing 15 -> Listing 16
// complete-data-set insert with foreign-key sorting (experiment E4).
func BenchmarkE4_InsertDataFull(b *testing.B) {
	m := newMediator(b, core.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec(b, m, fullDatasetInsert(i))
	}
}

// BenchmarkE5_DeleteDataPartial measures the Listing 17 -> Listing 18
// partial delete (experiment E5).
func BenchmarkE5_DeleteDataPartial(b *testing.B) {
	m := newMediator(b, core.Options{})
	exec(b, m, seedTeams(1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		exec(b, m, authorInsert(i+1, 1))
		b.StartTimer()
		exec(b, m, fmt.Sprintf(`%s
DELETE DATA { ex:author%d foaf:mbox <mailto:a%d@example.org> . }`, workload.Prologue, i+1, i+1))
	}
}

// BenchmarkE6_Modify measures the Listing 11 MODIFY (experiment E6).
func BenchmarkE6_Modify(b *testing.B) {
	m := newMediator(b, core.Options{})
	exec(b, m, seedTeams(1, 1))
	exec(b, m, authorInsert(1, 1))
	g := workload.NewGenerator(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec(b, m, g.EmailModifyBGP(1))
	}
}

// BenchmarkE7_InsertAsUpdate measures the INSERT-becomes-UPDATE path
// (experiment E7).
func BenchmarkE7_InsertAsUpdate(b *testing.B) {
	m := newMediator(b, core.Options{})
	exec(b, m, workload.Prologue+`INSERT DATA { ex:author1 foaf:family_name "Hert" . }`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec(b, m, fmt.Sprintf(`%s
INSERT DATA { ex:author1 foaf:firstName "M%d" . }`, workload.Prologue, i))
	}
}

// BenchmarkE8_DeleteDataRow measures the DELETE-becomes-row-DELETE
// path (experiment E8).
func BenchmarkE8_DeleteDataRow(b *testing.B) {
	m := newMediator(b, core.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		exec(b, m, fmt.Sprintf(`%s
INSERT DATA { ex:team%d foaf:name "T" ; ont:teamCode "C" . }`, workload.Prologue, i+1))
		b.StartTimer()
		exec(b, m, fmt.Sprintf(`%s
DELETE DATA { ex:team%d foaf:name "T" ; ont:teamCode "C" . }`, workload.Prologue, i+1))
	}
}

// ---- B-series: quantifying the paper's qualitative claims ----

// BenchmarkB1_MediatorVsNative compares per-request update cost of
// the OntoAccess mediator (translation + constraint checks + SQL
// execution) against the native triple store baseline, across
// preloaded database sizes (experiment B1; the paper's introduction
// argues mediation preserves RDB performance characteristics while
// triple stores lag, citing the Berlin SPARQL benchmark).
func BenchmarkB1_MediatorVsNative(b *testing.B) {
	for _, preload := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("OntoAccess/preload=%d", preload), func(b *testing.B) {
			m := newMediator(b, core.Options{})
			exec(b, m, seedTeams(1, 50))
			for i := 0; i < preload; i++ {
				exec(b, m, authorInsert(i+1, i%50+1))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exec(b, m, authorInsert(preload+i+1, i%50+1))
			}
		})
		b.Run(fmt.Sprintf("NativeStore/preload=%d", preload), func(b *testing.B) {
			store := triplestore.New()
			apply := func(src string) {
				req, err := update.Parse(src)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := update.Apply(store, req); err != nil {
					b.Fatal(err)
				}
			}
			apply(seedTeams(1, 50))
			for i := 0; i < preload; i++ {
				apply(authorInsert(i+1, i%50+1))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				apply(authorInsert(preload+i+1, i%50+1))
			}
		})
	}
}

// BenchmarkB1_MixedStream runs the generator's realistic write mix
// (60% author inserts, 25% publication inserts with link rows, 15%
// MODIFYs) through both systems.
func BenchmarkB1_MixedStream(b *testing.B) {
	b.Run("OntoAccess", func(b *testing.B) {
		m := newMediator(b, core.Options{})
		g := workload.NewGenerator(99)
		for _, req := range g.SetupRequests() {
			exec(b, m, req)
		}
		stream := g.Stream(b.N, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for _, req := range stream {
			exec(b, m, req)
		}
	})
	b.Run("NativeStore", func(b *testing.B) {
		store := triplestore.New()
		g := workload.NewGenerator(99)
		apply := func(src string) {
			req, err := update.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := update.Apply(store, req); err != nil {
				b.Fatal(err)
			}
		}
		for _, req := range g.SetupRequests() {
			apply(req)
		}
		stream := g.Stream(b.N, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for _, req := range stream {
			apply(req)
		}
	})
}

// BenchmarkB2_SortAblation measures Algorithm 1 step five: with
// sorting, the Listing 15-shaped insert succeeds; without it, the
// transaction is rejected by the immediate foreign-key check (the
// bench measures the cost of each path and demonstrates the failure).
func BenchmarkB2_SortAblation(b *testing.B) {
	b.Run("Sorted", func(b *testing.B) {
		m := newMediator(b, core.Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exec(b, m, fullDatasetInsert(i))
		}
	})
	b.Run("UnsortedRejected", func(b *testing.B) {
		m := newMediator(b, core.Options{DisableSort: true})
		b.ReportAllocs()
		b.ResetTimer()
		failures := 0
		for i := 0; i < b.N; i++ {
			if _, err := m.ExecuteString(fullDatasetInsert(i)); err != nil {
				failures++
			}
		}
		b.StopTimer()
		if failures != b.N {
			b.Fatalf("unsorted execution succeeded %d times, expected 0", b.N-failures)
		}
		b.ReportMetric(float64(failures)/float64(b.N), "failures/op")
	})
}

// BenchmarkB3_ModifyOptimizationAblation measures the Section 5.2
// redundant-delete optimization: statements per MODIFY with and
// without it.
func BenchmarkB3_ModifyOptimizationAblation(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts core.Options
	}{
		{"Optimized", core.Options{}},
		{"Unoptimized", core.Options{DisableModifyOptimization: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			m := newMediator(b, variant.opts)
			exec(b, m, seedTeams(1, 1))
			exec(b, m, authorInsert(1, 1))
			stmts := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh target address each iteration, so the delete
				// and insert objects always differ (the optimization's
				// precondition).
				req := fmt.Sprintf(`%s
MODIFY
DELETE { ex:author1 foaf:mbox ?m . }
INSERT { ex:author1 foaf:mbox <mailto:new%d@example.org> . }
WHERE { ex:author1 foaf:mbox ?m . }`, workload.Prologue, i)
				res, err := m.ExecuteString(req)
				if err != nil {
					b.Fatal(err)
				}
				stmts += len(res.SQL())
			}
			b.ReportMetric(float64(stmts)/float64(b.N), "sqlstmts/op")
		})
	}
}

// BenchmarkB4_ValidationOverhead compares accepted requests against
// requests rejected by the mapping-level constraint checks (Section
// 3: invalid updates are detected during translation, with rich
// feedback, before any SQL executes).
func BenchmarkB4_ValidationOverhead(b *testing.B) {
	b.Run("ValidInsert", func(b *testing.B) {
		m := newMediator(b, core.Options{})
		exec(b, m, seedTeams(1, 50))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exec(b, m, authorInsert(i+1, i%50+1))
		}
	})
	b.Run("RejectedMissingMandatory", func(b *testing.B) {
		m := newMediator(b, core.Options{})
		req := workload.Prologue + `INSERT DATA { ex:author1 foaf:firstName "Anon" . }`
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.ExecuteString(req); err == nil {
				b.Fatal("invalid request accepted")
			}
		}
	})
	b.Run("RejectedUnknownProperty", func(b *testing.B) {
		m := newMediator(b, core.Options{})
		req := workload.Prologue + `INSERT DATA { ex:team1 foaf:firstName "nope" . }`
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.ExecuteString(req); err == nil {
				b.Fatal("invalid request accepted")
			}
		}
	})
}

// BenchmarkB5_PipelineStages decomposes the translation pipeline:
// request parsing, WHERE-clause SQL generation, and full execution.
func BenchmarkB5_PipelineStages(b *testing.B) {
	b.Run("ParseInsertData", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := update.Parse(workload.Listing15); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ParseModify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := update.Parse(workload.Listing11); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TranslateSelect", func(b *testing.B) {
		m := newMediator(b, core.Options{})
		exec(b, m, workload.Listing15)
		q, err := sparql.ParseQuery(workload.Prologue + `
SELECT ?x ?mbox WHERE {
  ?x rdf:type foaf:Person ; foaf:firstName "Matthias" ;
     foaf:family_name "Hert" ; foaf:mbox ?mbox . }`)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := m.DB().View(func(tx *rdb.Tx) error {
				_, terr := m.TranslateSelect(tx, q.Where, nil)
				return terr
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ExecuteFullInsert", func(b *testing.B) {
		m := newMediator(b, core.Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exec(b, m, fullDatasetInsert(i))
		}
	})
}

// BenchmarkB6_QueryMediatorVsNative compares the read path: the
// paper's SPARQL-to-SQL translation versus native triple-store
// evaluation of the same query over equivalent data.
func BenchmarkB6_QueryMediatorVsNative(b *testing.B) {
	const size = 2000
	query := workload.Prologue + `
SELECT ?x ?mbox WHERE {
  ?x rdf:type foaf:Person ;
     foaf:family_name "Hert42" ;
     foaf:mbox ?mbox .
}`
	b.Run("OntoAccessSQL", func(b *testing.B) {
		m := newMediator(b, core.Options{})
		exec(b, m, seedTeams(1, 50))
		for i := 0; i < size; i++ {
			exec(b, m, fmt.Sprintf(`%s
INSERT DATA {
  ex:author%d foaf:family_name "Hert%d" ;
      foaf:mbox <mailto:a%d@example.org> .
}`, workload.Prologue, i+1, i+1, i+1))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := m.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Solutions) != 1 {
				b.Fatalf("solutions = %d", len(res.Solutions))
			}
		}
	})
	b.Run("NativeStore", func(b *testing.B) {
		store := triplestore.New()
		for i := 0; i < size; i++ {
			src := fmt.Sprintf(`%s
INSERT DATA {
  ex:author%d rdf:type foaf:Person ;
      foaf:family_name "Hert%d" ;
      foaf:mbox <mailto:a%d@example.org> .
}`, workload.Prologue, i+1, i+1, i+1)
			req, err := update.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := update.Apply(store, req); err != nil {
				b.Fatal(err)
			}
		}
		q, err := sparql.ParseQuery(query)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sols, err := sparql.Eval(store, q)
			if err != nil {
				b.Fatal(err)
			}
			if len(sols) != 1 {
				b.Fatalf("solutions = %d", len(sols))
			}
		}
	})
}

// BenchmarkB7_ConcurrentThroughput runs the mixed write stream across
// goroutines at 1-16 workers and reports ops/sec, with the
// compiled-plan pipeline on and off. With plans on, writers on
// disjoint tables proceed under per-table locks and request
// translation happens outside any lock; with plans off every request
// is re-translated under the whole-database write lock (the paper's
// single-connection model).
func BenchmarkB7_ConcurrentThroughput(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts core.Options
	}{
		{"PlanCache", core.Options{}},
		{"NoCache", core.Options{DisablePlanCache: true}},
	} {
		for _, workers := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/workers=%d", variant.name, workers), func(b *testing.B) {
				m := newMediator(b, variant.opts)
				perWorker := (b.N + workers - 1) / workers
				cs := workload.NewConcurrentStream(7, workers, perWorker)
				if err := cs.Setup(m); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				ops, err := cs.Run(m)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(ops)/secs, "ops/sec")
				}
			})
		}
	}
}

// BenchmarkB7_ConcurrentReadThroughput measures the B6 query path
// under concurrency: queries run in read-only transactions holding
// shared locks, so they evaluate in parallel across cores (the
// whole-database mutex the seed used serialized them).
func BenchmarkB7_ConcurrentReadThroughput(b *testing.B) {
	m := newMediator(b, core.Options{})
	exec(b, m, seedTeams(1, 20))
	for i := 0; i < 500; i++ {
		exec(b, m, authorInsert(i+1, i%20+1))
	}
	query := workload.Prologue + `
SELECT ?x ?mbox WHERE {
  ?x rdf:type foaf:Person ;
     foaf:family_name "L250" ;
     foaf:mbox ?mbox .
}`
	b.ReportAllocs()
	b.ResetTimer()
	// Fatal must not be called from RunParallel worker goroutines;
	// record the first failure and report it afterwards.
	var firstErr atomic.Value
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := m.Query(query)
			if err == nil && len(res.Solutions) != 1 {
				err = fmt.Errorf("solutions = %d, want 1", len(res.Solutions))
			}
			if err != nil {
				// Store the message: atomic.Value requires one
				// consistent concrete type across stores.
				firstErr.CompareAndSwap(nil, err.Error())
				return
			}
		}
	})
	b.StopTimer()
	if err := firstErr.Load(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkB7_ConcurrentModifyThroughput is B7 over the MODIFY-heavy
// mix (55% compiled BGP MODIFYs): with plans on, each MODIFY runs its
// compiled SELECT plus direct storage ops under per-table locks; with
// plans off, every MODIFY re-translates its WHERE and both per-binding
// templates under the whole-database write lock.
func BenchmarkB7_ConcurrentModifyThroughput(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts core.Options
	}{
		{"PlanCache", core.Options{}},
		{"NoCache", core.Options{DisablePlanCache: true}},
	} {
		for _, workers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/workers=%d", variant.name, workers), func(b *testing.B) {
				m := newMediator(b, variant.opts)
				perWorker := (b.N + workers - 1) / workers
				cs := workload.NewConcurrentModifyStream(13, workers, perWorker)
				if err := cs.Setup(m); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				ops, err := cs.Run(m)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(ops)/secs, "ops/sec")
				}
			})
		}
	}
}

// BenchmarkB8_PlanCache measures the compiled-plan pipeline on
// repeated requests. Repeated sends the same small working set of
// requests over and over (the steady state of a production endpoint:
// parse memo and plan cache both hit); FreshParams sends
// never-repeated request strings that still share shapes (only the
// plan cache hits); CacheOff re-translates every request.
func BenchmarkB8_PlanCache(b *testing.B) {
	const pool = 64
	run := func(b *testing.B, opts core.Options, fresh bool) {
		m := newMediator(b, opts)
		exec(b, m, seedTeams(1, 50))
		reqs := make([]string, pool)
		for i := 0; i < pool; i++ {
			reqs[i] = authorInsert(i+1, i%50+1)
		}
		for _, req := range reqs {
			exec(b, m, req) // warm: rows exist, caches primed
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if fresh {
				exec(b, m, authorInsert(pool+i+1, i%50+1))
			} else {
				exec(b, m, reqs[i%pool])
			}
		}
		b.StopTimer()
		if s := m.PlanCacheStats(); !opts.DisablePlanCache && s.Hits == 0 {
			b.Fatalf("plan cache never hit: %+v", s)
		}
	}
	b.Run("Repeated/CacheOn", func(b *testing.B) { run(b, core.Options{}, false) })
	b.Run("Repeated/CacheOff", func(b *testing.B) { run(b, core.Options{DisablePlanCache: true}, false) })
	b.Run("FreshParams/CacheOn", func(b *testing.B) { run(b, core.Options{}, true) })
	b.Run("FreshParams/CacheOff", func(b *testing.B) { run(b, core.Options{DisablePlanCache: true}, true) })
}

// BenchmarkB9_ModifyPlanCache measures the compiled-MODIFY pipeline on
// repeated MODIFY shapes. Repeated cycles a fixed pool of request
// strings (parse memo + bound plan both hit — the steady state of a
// production endpoint); FreshParams sends never-repeated strings
// sharing one shape (only the plan cache hits, re-binding per
// request); CacheOff re-translates the WHERE SELECT and both
// per-binding templates on every call, like the paper's prototype.
func BenchmarkB9_ModifyPlanCache(b *testing.B) {
	const pool = 32
	modify := func(author, seq int) string {
		return fmt.Sprintf(`%s
MODIFY
DELETE { ex:author%d foaf:mbox ?m . }
INSERT { ex:author%d foaf:mbox <mailto:b%d@example.org> . }
WHERE { ex:author%d foaf:mbox ?m . }`, workload.Prologue, author, author, seq, author)
	}
	run := func(b *testing.B, opts core.Options, fresh bool) {
		m := newMediator(b, opts)
		exec(b, m, seedTeams(1, 10))
		reqs := make([]string, pool)
		for i := 0; i < pool; i++ {
			exec(b, m, authorInsert(i+1, i%10+1))
			reqs[i] = modify(i+1, i+1)
		}
		for _, req := range reqs {
			exec(b, m, req) // warm: caches primed, mailboxes rotated once
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if fresh {
				exec(b, m, modify(i%pool+1, pool+i+1))
			} else {
				exec(b, m, reqs[i%pool])
			}
		}
		b.StopTimer()
		if s := m.ModifyPlanCacheStats(); !opts.DisablePlanCache && s.Hits == 0 {
			b.Fatalf("modify plan cache never hit: %+v", s)
		}
	}
	b.Run("Repeated/CacheOn", func(b *testing.B) { run(b, core.Options{}, false) })
	b.Run("Repeated/CacheOff", func(b *testing.B) { run(b, core.Options{DisablePlanCache: true}, false) })
	b.Run("FreshParams/CacheOn", func(b *testing.B) { run(b, core.Options{}, true) })
	b.Run("FreshParams/CacheOff", func(b *testing.B) { run(b, core.Options{DisablePlanCache: true}, true) })
}

// BenchmarkB10_ReadUnderWrite measures the MVCC read path: query
// throughput on an idle database versus the same queries while a
// concurrent MODIFY stream rewrites the queried table. The stream is
// paced (a fixed delay between MODIFYs) so the comparison isolates
// reader stalls from plain CPU sharing with the writer goroutines.
// Queries evaluate against lock-free snapshots, so the two numbers
// should sit within a few percent of each other — before the snapshot
// refactor, a queued writer blocked every later reader on the table
// lock, so the same stream degraded reads by its full lock-hold
// footprint.
func BenchmarkB10_ReadUnderWrite(b *testing.B) {
	const preload = 500
	setup := func(b *testing.B) *core.Mediator {
		m := newMediator(b, core.Options{})
		exec(b, m, seedTeams(1, 20))
		for i := 0; i < preload; i++ {
			exec(b, m, authorInsert(i+1, i%20+1))
		}
		return m
	}
	query := workload.Prologue + `
SELECT ?x ?mbox WHERE {
  ?x rdf:type foaf:Person ;
     foaf:family_name "L250" ;
     foaf:mbox ?mbox .
}`
	runReaders := func(b *testing.B, m *core.Mediator) {
		var firstErr atomic.Value
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				res, err := m.Query(query)
				if err == nil && len(res.Solutions) != 1 {
					err = fmt.Errorf("solutions = %d, want 1", len(res.Solutions))
				}
				if err != nil {
					firstErr.CompareAndSwap(nil, err.Error())
					return
				}
			}
		})
		b.StopTimer()
		if err := firstErr.Load(); err != nil {
			b.Fatal(err)
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "queries/sec")
		}
	}
	b.Run("Idle", func(b *testing.B) {
		m := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		runReaders(b, m)
	})
	b.Run("UnderModifyStream", func(b *testing.B) {
		m := setup(b)
		const writers = 2
		const pace = 200 * time.Microsecond // paced background MODIFY stream
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var writes atomic.Int64
		var writeErr atomic.Value
		g := workload.NewGenerator(5)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each writer rotates the mailboxes of its own authors —
				// same table as the queries, disjoint from the queried row.
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					case <-time.After(pace):
					}
					id := w*100 + i%100 + 1
					if id == 250 {
						continue // keep the queried row stable
					}
					if _, err := m.ExecuteString(g.EmailModifyBGP(id)); err != nil {
						writeErr.CompareAndSwap(nil, err.Error())
						return
					}
					writes.Add(1)
				}
			}(w)
		}
		b.ReportAllocs()
		b.ResetTimer()
		runReaders(b, m)
		close(stop)
		wg.Wait()
		// A failed (or absent) write stream would silently turn this
		// into a second idle measurement. Smoke runs (-benchtime 1x)
		// end before the paced stream can fire, so the absence check
		// only applies to real measurement windows.
		if err := writeErr.Load(); err != nil {
			b.Fatalf("background MODIFY stream failed: %v", err)
		}
		if writes.Load() == 0 && b.Elapsed() > time.Second {
			b.Fatal("background MODIFY stream made no writes")
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(writes.Load())/secs, "bg-writes/sec")
		}
	})
}

// BenchmarkB11_BatchedSameTableWrites measures the group-commit
// scheduler on the workload PR 2 left on the table: same-table
// writers in the endpoint's steady state (a working set of request
// shapes cycling through the parse memo and bound-plan cache, as in
// B8/Repeated). Every worker writes authors — one table, one lock
// signature — so without batching the workers serialize through
// lock-plan/lock-handoff/commit/publish cycles per operation, while
// with batching the leader drains whole queues through one
// transaction and one snapshot publish.
func BenchmarkB11_BatchedSameTableWrites(b *testing.B) {
	const pool = 64
	for _, variant := range []struct {
		name string
		opts core.Options
	}{
		{"Batched", core.Options{}},
		{"Unbatched", core.Options{DisableWriteBatching: true}},
	} {
		for _, workers := range []int{2, 8, 16} {
			b.Run(fmt.Sprintf("%s/workers=%d", variant.name, workers), func(b *testing.B) {
				m := newMediator(b, variant.opts)
				exec(b, m, seedTeams(1, 20))
				// Per-worker request pools: the first round inserts the
				// rows, every later round re-executes the same strings as
				// INSERT-becomes-UPDATE — the hot compiled path.
				reqs := make([][]string, workers)
				for w := 0; w < workers; w++ {
					reqs[w] = make([]string, pool)
					for i := 0; i < pool; i++ {
						reqs[w][i] = authorInsert(w*1_000_000+i+1, i%20+1)
					}
					for _, req := range reqs[w] {
						exec(b, m, req)
					}
				}
				perWorker := (b.N + workers - 1) / workers
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				var firstErr atomic.Value
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < perWorker; i++ {
							if _, err := m.ExecuteString(reqs[w][i%pool]); err != nil {
								firstErr.CompareAndSwap(nil, err.Error())
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				if err := firstErr.Load(); err != nil {
					b.Fatal(err)
				}
				ops := workers * perWorker
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(ops)/secs, "ops/sec")
				}
				if s := m.SchedulerStats(); !variant.opts.DisableWriteBatching && s.Ops == 0 {
					b.Fatal("scheduler never ran despite batching enabled")
				}
			})
		}
	}
}

// BenchmarkB12_QueryJoin measures the compiled query pipeline on a
// two-table join over ≥1k author rows: the streaming executor pushes
// the lastname equality into the author scan and probes the team
// primary key per surviving row, versus the nested-loop baseline that
// materializes the full author×team cross product before filtering.
// Compiled must beat NestedLoopBaseline by ≥5x (it lands orders of
// magnitude ahead; see EXPERIMENTS.md B12). Uncached isolates the
// plan cache's share: same lowering and streaming executor, but
// re-parsing the query and compiling its literal text per request.
func BenchmarkB12_QueryJoin(b *testing.B) {
	const authors = 1500
	query := workload.Prologue + `
SELECT ?x ?team WHERE {
  ?x foaf:family_name "L750" ;
     ont:team ?t .
  ?t foaf:name ?team .
}`
	setup := func(b *testing.B, opts core.Options) *core.Mediator {
		m := newMediator(b, opts)
		exec(b, m, seedTeams(1, 50))
		for i := 0; i < authors; i++ {
			exec(b, m, authorInsert(i+1, i%50+1))
		}
		return m
	}
	check := func(b *testing.B, n int) {
		if n != 1 {
			b.Fatalf("solutions = %d, want 1", n)
		}
	}
	b.Run("Compiled", func(b *testing.B) {
		m := setup(b, core.Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := m.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			check(b, len(res.Solutions))
		}
	})
	b.Run("Uncached", func(b *testing.B) {
		m := setup(b, core.Options{DisablePlanCache: true})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := m.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			check(b, len(res.Solutions))
		}
	})
	b.Run("NestedLoopBaseline", func(b *testing.B) {
		m := setup(b, core.Options{})
		q, err := sparql.ParseQuery(query)
		if err != nil {
			b.Fatal(err)
		}
		var sel sqlparser.Select
		err = m.DB().View(func(tx *rdb.Tx) error {
			st, terr := m.TranslateSelect(tx, q.Where, nil)
			if terr != nil {
				return terr
			}
			stmt, perr := sqlparser.ParseStatement(st.SQL)
			if perr != nil {
				return perr
			}
			sel = stmt.(sqlparser.Select)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := m.DB().View(func(tx *rdb.Tx) error {
				rs, rerr := sqlexec.SelectNaive(tx, sel)
				if rerr != nil {
					return rerr
				}
				check(b, len(rs.Rows))
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkB13_QueryPlanCache measures the compiled read path on
// repeated queries, mirroring B8/B9 for the query side. Repeated
// cycles a fixed pool of query strings (parse memo + bound plan both
// hit — the steady state of a read-mostly endpoint); FreshParams sends
// ever-changing strings sharing one shape (the plan cache hits, the
// parse memo thrashes); CacheOff re-parses the query and compiles its
// literal text on every call, caching nothing.
func BenchmarkB13_QueryPlanCache(b *testing.B) {
	const pool = 64
	teamQuery := func(i int) string {
		return fmt.Sprintf(`%s
SELECT ?name WHERE { ex:team%d foaf:name ?name . }`, workload.Prologue, i)
	}
	// freshPool outsizes the 256-entry parse memo, so FreshParams
	// strings are evicted long before they repeat: every request
	// re-binds through the plan cache alone. The query is a pk point
	// lookup, so translation — not scanning — dominates and the cache
	// effect is visible.
	const freshPool = 1024
	run := func(b *testing.B, opts core.Options, fresh bool) {
		m := newMediator(b, opts)
		n := pool
		if fresh {
			n = freshPool
		}
		exec(b, m, seedTeams(1, n))
		reqs := make([]string, pool)
		for i := 0; i < pool; i++ {
			reqs[i] = teamQuery(i + 1)
		}
		for _, q := range reqs {
			if _, err := m.Query(q); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var q string
			if fresh {
				q = teamQuery(i%freshPool + 1)
			} else {
				q = reqs[i%pool]
			}
			res, err := m.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Solutions) != 1 {
				b.Fatalf("solutions = %d", len(res.Solutions))
			}
		}
		b.StopTimer()
		if s := m.QueryPlanCacheStats(); !opts.DisablePlanCache && s.Size == 0 {
			b.Fatalf("query plan cache never compiled: %+v", s)
		}
		if s := m.QueryPlanCacheStats(); opts.DisablePlanCache && s.Misses != 0 {
			b.Fatalf("query plan cache touched despite CacheOff: %+v", s)
		}
	}
	b.Run("Repeated/CacheOn", func(b *testing.B) { run(b, core.Options{}, false) })
	b.Run("Repeated/CacheOff", func(b *testing.B) { run(b, core.Options{DisablePlanCache: true}, false) })
	b.Run("FreshParams/CacheOn", func(b *testing.B) { run(b, core.Options{}, true) })
	b.Run("FreshParams/CacheOff", func(b *testing.B) { run(b, core.Options{DisablePlanCache: true}, true) })
}

// BenchmarkB14_FilterPushdown measures what compiling FILTER into the
// query pipeline buys on a 1.5k-row filtered join: the FILTER conjunct
// lowers to a typed WHERE condition pushed into the author scan, the
// team lookup becomes a per-survivor pk probe, and ORDER BY + LIMIT
// run through the bounded top-K heap. ExportAndEval is the pre-PR-5
// behaviour for exactly these queries — evaluation over the whole
// virtual RDF view (the fallback every FILTER query used to take) —
// and the bar is ≥5x; compiled lands orders of magnitude ahead (see
// EXPERIMENTS.md B14).
func BenchmarkB14_FilterPushdown(b *testing.B) {
	const authors = 1500
	query := workload.Prologue + `
SELECT ?l ?team WHERE {
  ?x foaf:family_name ?l ;
     ont:team ?t .
  ?t foaf:name ?team .
  FILTER (?l >= "L750" && ?l < "L756")
} ORDER BY ?l LIMIT 5`
	setup := func(b *testing.B, opts core.Options) *core.Mediator {
		m := newMediator(b, opts)
		exec(b, m, seedTeams(1, 50))
		for i := 0; i < authors; i++ {
			exec(b, m, authorInsert(i+1, i%50+1))
		}
		return m
	}
	// The lexical range selects L750..L755 (six names); LIMIT trims
	// the ordered output to five.
	check := func(b *testing.B, n int) {
		if n != 5 {
			b.Fatalf("solutions = %d, want 5", n)
		}
	}
	b.Run("Compiled", func(b *testing.B) {
		m := setup(b, core.Options{})
		if _, err := m.QueryPlanFor(query); err != nil {
			b.Fatalf("filter query did not compile: %v", err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := m.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			check(b, len(res.Solutions))
		}
	})
	b.Run("ExportAndEval", func(b *testing.B) {
		m := setup(b, core.Options{})
		q, err := sparql.ParseQuery(query)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := m.DB().View(func(tx *rdb.Tx) error {
				sols, serr := sparql.Eval(m.VirtualGraph(tx), q)
				if serr != nil {
					return serr
				}
				check(b, len(sols))
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkB15_FsyncBatching measures what group commit buys once
// every acknowledgement carries an fsync: the same same-table writer
// workload as B11, but on a durable store (rdb.Options.DataDir), so
// each commit is a WAL append + fsync before any caller resumes. With
// batching, a drained batch commits as one record and one fsync shared
// by every operation in it; without batching, every operation pays its
// own fsync. fsyncs/op makes the amortization visible alongside the
// throughput delta (experiment B15; DESIGN.md section 8).
func BenchmarkB15_FsyncBatching(b *testing.B) {
	const pool = 64
	for _, variant := range []struct {
		name string
		opts core.Options
	}{
		{"Batched", core.Options{}},
		{"Unbatched", core.Options{DisableWriteBatching: true}},
	} {
		for _, workers := range []int{2, 8, 16} {
			b.Run(fmt.Sprintf("%s/workers=%d", variant.name, workers), func(b *testing.B) {
				m, recovered, err := workload.NewPersistentMediator(b.TempDir(), variant.opts)
				if err != nil {
					b.Fatal(err)
				}
				if recovered {
					b.Fatal("fresh bench directory reported recovered state")
				}
				defer m.Close()
				exec(b, m, seedTeams(1, 20))
				reqs := make([][]string, workers)
				for w := 0; w < workers; w++ {
					reqs[w] = make([]string, pool)
					for i := 0; i < pool; i++ {
						reqs[w][i] = authorInsert(w*1_000_000+i+1, i%20+1)
					}
					for _, req := range reqs[w] {
						exec(b, m, req)
					}
				}
				baseFsyncs := m.DurabilityStats().Fsyncs
				perWorker := (b.N + workers - 1) / workers
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				var firstErr atomic.Value
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < perWorker; i++ {
							if _, err := m.ExecuteString(reqs[w][i%pool]); err != nil {
								firstErr.CompareAndSwap(nil, err.Error())
								return
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				if err := firstErr.Load(); err != nil {
					b.Fatal(err)
				}
				ops := workers * perWorker
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(ops)/secs, "ops/sec")
				}
				fsyncs := m.DurabilityStats().Fsyncs - baseFsyncs
				if fsyncs == 0 {
					b.Fatal("durable benchmark performed no fsyncs")
				}
				b.ReportMetric(float64(fsyncs)/float64(ops), "fsyncs/op")
			})
		}
	}
}

// BenchmarkB16_JoinOrdering measures what the cost-based join
// placement buys on a skewed three-table join. The SQL is written in
// the worst textual order: scan every publication, probe the link
// table, probe the author — when the WHERE pins a single author by
// primary key. Textual placement pays the full publication scan per
// query; cost-based placement reads the statistics off the snapshot
// (row counts, per-index distinct counts), starts from the one-row
// author probe, fans out through the link table's author index, and
// touches only that author's publications. Results are byte-identical
// by the ordering contract (experiment B16; DESIGN.md section 5).
func BenchmarkB16_JoinOrdering(b *testing.B) {
	const (
		pubs          = 3000
		authors       = 200
		pubsPerAuthor = pubs / authors
	)
	db, err := workload.NewDatabase()
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	for a := 1; a <= authors; a++ {
		fmt.Fprintf(&sb, "INSERT INTO author (id, lastname) VALUES (%d, 'L%d');\n", a, a)
	}
	for p := 1; p <= pubs; p++ {
		fmt.Fprintf(&sb, "INSERT INTO publication (id, title, year) VALUES (%d, 'T%d', %d);\n", p, p, 2000+p%10)
		// Skew: publications spread evenly, so one author matches
		// pubsPerAuthor of them and textual order overscans by pubs/pubsPerAuthor.
		fmt.Fprintf(&sb, "INSERT INTO publication_author (publication, author) VALUES (%d, %d);\n", p, p%authors+1)
	}
	if _, err := sqlexec.Run(db, sb.String()); err != nil {
		b.Fatal(err)
	}
	query := fmt.Sprintf(`SELECT t0.title FROM publication t0 JOIN publication_author l0 ON l0.publication = t0.id JOIN author a0 ON l0.author = a0.id WHERE a0.id = %d;`, authors/2)
	stmt, err := sqlparser.ParseStatement(query)
	if err != nil {
		b.Fatal(err)
	}
	sel := stmt.(sqlparser.Select)
	for _, mode := range []struct {
		name string
		run  func(tx *rdb.Tx) (*sqlexec.ResultSet, error)
	}{
		{"CostBased", func(tx *rdb.Tx) (*sqlexec.ResultSet, error) { return sqlexec.Select(tx, sel) }},
		{"Textual", func(tx *rdb.Tx) (*sqlexec.ResultSet, error) { return sqlexec.SelectTextual(tx, sel) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := db.View(func(tx *rdb.Tx) error {
					rs, rerr := mode.run(tx)
					if rerr != nil {
						return rerr
					}
					if len(rs.Rows) != pubsPerAuthor {
						b.Fatalf("rows = %d, want %d", len(rs.Rows), pubsPerAuthor)
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkB17_StreamingAggregate measures the compiled aggregate
// path — GROUP BY and COUNT/SUM folded into one streaming pass over
// the scan — against evaluating the same query natively over the
// exported virtual RDF view, which materializes every pubYear triple
// before aggregating (experiment B17; DESIGN.md section 5).
func BenchmarkB17_StreamingAggregate(b *testing.B) {
	const pubs = 2000
	query := workload.Prologue + `
SELECT ?y (COUNT(?p) AS ?n) (SUM(?y) AS ?s) WHERE { ?p ont:pubYear ?y . } GROUP BY ?y`
	setup := func(b *testing.B, opts core.Options) *core.Mediator {
		m := newMediator(b, opts)
		for i := 0; i < pubs; i += 50 {
			var sb strings.Builder
			sb.WriteString(workload.Prologue)
			sb.WriteString("\nINSERT DATA {\n")
			for j := i + 1; j <= i+50; j++ {
				fmt.Fprintf(&sb, "  ex:pub%d dc:title \"Title %d\" ; ont:pubYear \"%d\" .\n", j, j, 2000+j%10)
			}
			sb.WriteString("}")
			exec(b, m, sb.String())
		}
		return m
	}
	check := func(b *testing.B, n int) {
		if n != 10 {
			b.Fatalf("groups = %d, want 10", n)
		}
	}
	b.Run("Compiled", func(b *testing.B) {
		m := setup(b, core.Options{})
		if _, err := m.QueryPlanFor(query); err != nil {
			b.Fatalf("aggregate query did not compile: %v", err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := m.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			check(b, len(res.Solutions))
		}
	})
	b.Run("ExportAndEval", func(b *testing.B) {
		m := setup(b, core.Options{})
		q, err := sparql.ParseQuery(query)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := m.DB().View(func(tx *rdb.Tx) error {
				sols, serr := sparql.Eval(m.VirtualGraph(tx), q)
				if serr != nil {
					return serr
				}
				check(b, len(sols))
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// discardJSONSink is the minimal core.StreamSink over the incremental
// SPARQL-results-JSON writer — what the HTTP endpoint does per
// request, minus the socket.
type discardJSONSink struct {
	w    io.Writer
	jw   *sparql.ResultsJSONWriter
	rows int
}

func (s *discardJSONSink) Head(vars []string) error {
	jw, err := sparql.NewResultsJSONWriter(s.w, vars)
	if err != nil {
		return err
	}
	s.jw = jw
	return nil
}

func (s *discardJSONSink) Solution(bnd sparql.Binding) error {
	s.rows++
	return s.jw.WriteSolution(bnd)
}

func (s *discardJSONSink) Ask(bool) error         { return fmt.Errorf("unexpected ASK result") }
func (s *discardJSONSink) Graph(*rdf.Graph) error { return fmt.Errorf("unexpected graph result") }

func (s *discardJSONSink) close() error {
	if s.jw == nil {
		return nil
	}
	return s.jw.Close()
}

// BenchmarkB18_StreamedSelect compares the seed's buffered SELECT
// delivery (materialize every solution, render the complete JSON
// document, write it out) against the end-to-end streaming pipeline
// (QueryStream cursor -> reused binding -> incremental JSON writer)
// on a 100k-row result (experiment B18). Both sinks write to
// io.Discard, so bytes/op isolates response-path buffering: the
// streamed path's allocations stay flat per row while the buffered
// path retains the whole solution set plus the rendered document.
func BenchmarkB18_StreamedSelect(b *testing.B) {
	const authors = 100_000
	m := newMediator(b, core.Options{})
	exec(b, m, seedTeams(1, 20))
	for i := 0; i < authors; i += 500 {
		var sb strings.Builder
		sb.WriteString(workload.Prologue)
		sb.WriteString("\nINSERT DATA {\n")
		for j := i + 1; j <= i+500; j++ {
			fmt.Fprintf(&sb, "  ex:author%d foaf:title \"Dr\" ; foaf:firstName \"F%d\" ; foaf:family_name \"L%d\" ; foaf:mbox <mailto:a%d@example.org> ; ont:team ex:team%d .\n",
				j, j, j, j, j%20+1)
		}
		sb.WriteString("}")
		exec(b, m, sb.String())
	}
	query := workload.Prologue + `SELECT ?x ?m WHERE { ?x foaf:mbox ?m . }`

	// Pin byte-identical output before timing anything.
	res, err := m.Query(query)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Solutions) != authors {
		b.Fatalf("query returned %d rows, want %d", len(res.Solutions), authors)
	}
	want, err := sparql.ResultsJSON(res.Vars, res.Solutions)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	sink := &discardJSONSink{w: &buf}
	if err := m.QueryStream(query, sink); err != nil {
		b.Fatal(err)
	}
	if err := sink.close(); err != nil {
		b.Fatal(err)
	}
	if sink.rows != authors {
		b.Fatalf("streamed %d rows, want %d", sink.rows, authors)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		b.Fatalf("streamed JSON differs from buffered (%d vs %d bytes)", buf.Len(), len(want))
	}

	b.Run("Buffered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := m.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			data, err := sparql.ResultsJSON(res.Vars, res.Solutions)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Discard.Write(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Streamed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink := &discardJSONSink{w: io.Discard}
			if err := m.QueryStream(query, sink); err != nil {
				b.Fatal(err)
			}
			if err := sink.close(); err != nil {
				b.Fatal(err)
			}
			if sink.rows != authors {
				b.Fatalf("streamed %d rows, want %d", sink.rows, authors)
			}
		}
	})
}

// BenchmarkB19_WALRecovery measures crash-recovery replay of a
// multi-segment WAL (experiment B19): the sequential single-pass
// reader against the segment-parallel decode + CRC verification that
// rdb.Open now uses (the apply order is identical — only the I/O and
// checksum work fans out). On GOMAXPROCS=1 hosts ReplayParallel
// degrades to the sequential path, so the two sub-benchmarks tie.
func BenchmarkB19_WALRecovery(b *testing.B) {
	const (
		segments = 8
		perSeg   = 8000
		frameLen = 512
	)
	dir := b.TempDir()
	l, err := wal.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, frameLen)
	for s := 0; s < segments; s++ {
		if s > 0 {
			if _, err := l.Rotate(); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < perSeg; i++ {
			payload[0] = byte(i)
			if err := l.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
		if err := l.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, parallel bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l, err := wal.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			var n, total int
			fn := func(p []byte) error { n++; total += len(p); return nil }
			var torn bool
			if parallel {
				torn, err = l.ReplayParallel(fn)
			} else {
				torn, err = l.Replay(fn)
			}
			if err != nil {
				b.Fatal(err)
			}
			if torn || n != segments*perSeg || total != segments*perSeg*frameLen {
				b.Fatalf("replayed %d frames (%d bytes, torn=%v), want %d clean", n, total, torn, segments*perSeg)
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Sequential", func(b *testing.B) { run(b, false) })
	b.Run("Parallel", func(b *testing.B) { run(b, true) })
}

// BenchmarkB20_HistoricalRead compares a head read against an AS OF
// read of a retained historical snapshot (experiment B20). Both
// targets resolve to an immutable snapshot and run the identical
// compiled plan, so the historical read should stay within a small
// constant factor of the head read — resolving through the history
// ring instead of the head pointer is the only extra work.
func BenchmarkB20_HistoricalRead(b *testing.B) {
	const authors = 2000
	m := newMediator(b, core.Options{})
	exec(b, m, seedTeams(1, 20))
	for i := 0; i < authors; i += 500 {
		var sb strings.Builder
		sb.WriteString(workload.Prologue)
		sb.WriteString("\nINSERT DATA {\n")
		for j := i + 1; j <= i+500; j++ {
			fmt.Fprintf(&sb, "  ex:author%d foaf:family_name \"Name%d\" ; ont:team ex:team%d .\n",
				j, j, 1+j%20)
		}
		sb.WriteString("}")
		exec(b, m, sb.String())
	}
	pinned := m.DB().SnapshotVersion()
	// Move the head past the pinned version (staying well inside the
	// retention bound) so the AS OF read is genuinely historical.
	for i := 0; i < 8; i++ {
		exec(b, m, fmt.Sprintf(workload.Prologue+`
MODIFY
DELETE { ex:author1 foaf:family_name ?n . }
INSERT { ex:author1 foaf:family_name "Rev%d" . }
WHERE { ex:author1 foaf:family_name ?n . }`, i))
	}
	query := workload.Prologue + `SELECT ?a WHERE { ?a ont:team ex:team7 . }`
	const wantRows = authors / 20
	run := func(b *testing.B, target rdb.ReadTarget) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := m.QueryOn(query, target)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Solutions) != wantRows {
				b.Fatalf("rows = %d, want %d", len(res.Solutions), wantRows)
			}
		}
	}
	b.Run("Head", func(b *testing.B) { run(b, rdb.ReadTarget{}) })
	b.Run("AsOf", func(b *testing.B) { run(b, rdb.ReadTarget{AsOf: pinned}) })
}

// BenchmarkE9_HTTPClosedLoopLoad drives the full HTTP stack — the
// hardened endpoint behind a real TCP listener — with the closed-loop
// mixed read/write harness and reports end-to-end latency percentiles,
// sustained throughput, and the process's peak RSS (experiment E9).
// b.N is requests per worker; the traffic mix is 20% MODIFY, the rest
// point lookups (JSON and table), full-scan SELECTs and ASKs.
func BenchmarkE9_HTTPClosedLoopLoad(b *testing.B) {
	const authorUniverse = 200
	m := newMediator(b, core.Options{})
	srv := endpoint.NewWithOptions(m, endpoint.Options{
		MaxInFlight:    64,
		RequestTimeout: 30 * time.Second,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if err := workload.SeedLoad(ts.URL, authorUniverse, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	res, err := workload.RunLoad(workload.LoadOptions{
		BaseURL:           ts.URL,
		Workers:           8,
		RequestsPerWorker: b.N,
		WriteFraction:     0.2,
		Authors:           authorUniverse,
		Seed:              42,
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if res.Errors > 0 || res.Shed > 0 || res.TimedOut > 0 {
		b.Fatalf("load run: %d errors, %d shed, %d timed out of %d requests",
			res.Errors, res.Shed, res.TimedOut, res.Requests)
	}
	b.ReportMetric(float64(res.P50)/1e6, "p50-ms")
	b.ReportMetric(float64(res.P95)/1e6, "p95-ms")
	b.ReportMetric(float64(res.P99)/1e6, "p99-ms")
	b.ReportMetric(res.Throughput, "req/sec")
	b.ReportMetric(res.PeakRSSMB, "peak-rss-mb")
}

// ---- request builders ----

func seedTeams(from, to int) string {
	var sb strings.Builder
	sb.WriteString(workload.Prologue)
	sb.WriteString("\nINSERT DATA {\n")
	for i := from; i <= to; i++ {
		fmt.Fprintf(&sb, "  ex:team%d foaf:name \"Team %d\" ; ont:teamCode \"T%d\" .\n", i, i, i)
	}
	sb.WriteString("}")
	return sb.String()
}

func authorInsert(id, team int) string {
	return fmt.Sprintf(`%s
INSERT DATA {
  ex:author%d foaf:title "Dr" ;
      foaf:firstName "F%d" ;
      foaf:family_name "L%d" ;
      foaf:mbox <mailto:a%d@example.org> ;
      ont:team ex:team%d .
}`, workload.Prologue, id, id, id, id, team)
}

// fullDatasetInsert builds a Listing 15-shaped request with fresh ids
// derived from i (all six tables touched, foreign keys inside the
// request).
func fullDatasetInsert(i int) string {
	base := i*10 + 100
	return fmt.Sprintf(`%s
INSERT DATA {
  ex:pub%d dc:title "Title %d" ;
      ont:pubYear "2009" ;
      ont:pubType ex:pubtype%d ;
      dc:publisher ex:publisher%d ;
      dc:creator ex:author%d .

  ex:author%d foaf:title "Mr" ;
      foaf:firstName "F%d" ;
      foaf:family_name "L%d" ;
      foaf:mbox <mailto:p%d@example.org> ;
      ont:team ex:team%d .

  ex:team%d foaf:name "Team %d" ;
      ont:teamCode "T%d" .

  ex:pubtype%d ont:type "inproceedings" .

  ex:publisher%d ont:name "Publisher %d" .
}`, workload.Prologue,
		base, base, base+1, base+2, base+3,
		base+3, base+3, base+3, base+3, base+4,
		base+4, base+4, base+4,
		base+1,
		base+2, base+2)
}
