package rdf

import (
	"slices"
	"sort"
	"sync"
)

// ShardedStore is the in-memory knowledge base: hash indexes over all three
// access paths, partitioned into N shards by subject hash (N may be 1).
// Node and predicate interning stays global — IDs mean the same thing in
// every shard — so point lookups cost one hash to find the shard plus the
// usual map probes, while full scans (ShardTriples) and bulk loads
// (AddBatch) run one worker per shard.
//
// This is the layout split the serving runtime needs: the offline predicate
// expansion is a k-round full scan+join (Sec 6.2) that wants to run wide,
// while the online path makes point probes V(e, p+) per interpretation;
// subject-hash partitioning serves both without any change to callers.
//
// A ShardedStore is safe for concurrent readers once writes have finished;
// writes (Add, AddBatch) must not race with reads.
type ShardedStore struct {
	symtab

	shards  []storeShard
	triples int
}

// storeShard holds the triple indexes for the subjects hashed into it.
type storeShard struct {
	spo map[ID]map[PID][]ID
	pos map[PID]map[ID][]ID
	so  map[ID]map[ID][]PID

	// subjects lists the distinct subjects of this shard in first-Add
	// order; scans sort it on demand.
	subjects []ID
	triples  int
}

func newStoreShard() storeShard {
	return storeShard{
		spo: make(map[ID]map[PID][]ID),
		pos: make(map[PID]map[ID][]ID),
		so:  make(map[ID]map[ID][]PID),
	}
}

// add inserts one triple into the shard, ignoring duplicates; it reports
// whether the triple was new.
func (sh *storeShard) add(subj ID, pred PID, obj ID) bool {
	pm, ok := sh.spo[subj]
	if !ok {
		pm = make(map[PID][]ID)
		sh.spo[subj] = pm
		sh.subjects = append(sh.subjects, subj)
	}
	for _, o := range pm[pred] {
		if o == obj {
			return false // duplicate
		}
	}
	pm[pred] = append(pm[pred], obj)

	om, ok := sh.pos[pred]
	if !ok {
		om = make(map[ID][]ID)
		sh.pos[pred] = om
	}
	om[obj] = append(om[obj], subj)

	sm, ok := sh.so[subj]
	if !ok {
		sm = make(map[ID][]PID)
		sh.so[subj] = sm
	}
	sm[obj] = append(sm[obj], pred)

	sh.triples++
	return true
}

// NewShardedStore returns an empty knowledge base partitioned into n >= 1
// subject-hash shards.
func NewShardedStore(n int) *ShardedStore {
	ss := &ShardedStore{symtab: newSymtab(), shards: make([]storeShard, n)}
	for i := range ss.shards {
		ss.shards[i] = newStoreShard()
	}
	return ss
}

// NumShards returns the shard count.
func (ss *ShardedStore) NumShards() int { return len(ss.shards) }

// shardOf maps a subject to its owning shard.
func (ss *ShardedStore) shardOf(id ID) int {
	return ShardIndex(id, len(ss.shards))
}

// Add records the triple (subj, pred, obj). Duplicate triples are ignored.
func (ss *ShardedStore) Add(subj ID, pred PID, obj ID) {
	if ss.shards[ss.shardOf(subj)].add(subj, pred, obj) {
		ss.triples++
	}
}

// AddBatch bulk-loads a batch of triples, building every shard's indexes in
// parallel: the batch is partitioned by subject hash in one sequential pass
// and then inserted by one worker per shard. Triples already present (in
// the store or duplicated inside the batch) are ignored, exactly as with
// Add. The IDs must already be interned.
func (ss *ShardedStore) AddBatch(batch []Triple) {
	parts := make([][]Triple, len(ss.shards))
	for _, t := range batch {
		i := ss.shardOf(t.S)
		parts[i] = append(parts[i], t)
	}
	added := make([]int, len(ss.shards))
	var wg sync.WaitGroup
	for i := range ss.shards {
		if len(parts[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := &ss.shards[i]
			for _, t := range parts[i] {
				if sh.add(t.S, t.P, t.O) {
					added[i]++
				}
			}
		}(i)
	}
	wg.Wait()
	for _, n := range added {
		ss.triples += n
	}
}

// Repartition rebuilds src as an n-shard store (n >= 1) with the same node
// IDs, feeding the new indexes in src's canonical scan order — so the
// result, and everything learned from it, depends on src's content only,
// not on the order src was filled in. The interning tables are taken over,
// not copied, so src must not be written to afterwards; the per-shard
// indexes are rebuilt in parallel, one worker per shard.
func Repartition(src *ShardedStore, n int) *ShardedStore {
	ss := NewShardedStore(n)
	ss.symtab = src.symtab
	batch := make([]Triple, 0, src.NumTriples())
	src.Triples(func(t Triple) { batch = append(batch, t) })
	ss.AddBatch(batch)
	return ss
}

// Objects returns V(e,p): all objects o with (subj, pred, o) in K. The
// returned slice is owned by the store and must not be mutated.
func (ss *ShardedStore) Objects(subj ID, pred PID) []ID {
	return ss.shards[ss.shardOf(subj)].spo[subj][pred]
}

// PredicatesBetween returns every direct predicate connecting subj to obj.
func (ss *ShardedStore) PredicatesBetween(subj, obj ID) []PID {
	return ss.shards[ss.shardOf(subj)].so[subj][obj]
}

// OutEdges iterates over the out-neighbourhood of subj, calling fn for each
// (pred, obj) pair. Iteration order over predicates is sorted for
// determinism.
func (ss *ShardedStore) OutEdges(subj ID, fn func(p PID, o ID)) {
	outEdges(ss.shards[ss.shardOf(subj)].spo[subj], fn)
}

// outEdges iterates a subject's predicate map in sorted-predicate order.
func outEdges(pm map[PID][]ID, fn func(p PID, o ID)) {
	var buf [32]PID
	preds := buf[:0]
	for p := range pm {
		preds = append(preds, p)
	}
	slices.Sort(preds)
	for _, p := range preds {
		for _, o := range pm[p] {
			fn(p, o)
		}
	}
}

// subjectTriples emits every triple of one subject in deterministic order
// (sorted predicate, then insertion order of objects).
func subjectTriples(subj ID, pm map[PID][]ID, fn func(Triple)) {
	outEdges(pm, func(p PID, o ID) {
		fn(Triple{S: subj, P: p, O: o})
	})
}

// NumTriples returns the number of distinct triples across all shards.
func (ss *ShardedStore) NumTriples() int { return ss.triples }

// Triples iterates over every triple in the store in one deterministic
// global order (ascending subject, sorted predicate, insertion order of
// objects), regardless of the shard layout.
func (ss *ShardedStore) Triples(fn func(Triple)) {
	for subj := ID(0); int(subj) < len(ss.labels); subj++ {
		pm, ok := ss.shards[ss.shardOf(subj)].spo[subj]
		if !ok {
			continue
		}
		subjectTriples(subj, pm, fn)
	}
}

// ShardTriples iterates over the triples of shard i only, in ascending
// subject order (then sorted predicate, insertion order of objects). The
// shards partition the subjects, so running ShardTriples for every shard
// visits each triple exactly once; workers on distinct shards may run
// concurrently.
func (ss *ShardedStore) ShardTriples(i int, fn func(Triple)) {
	for _, subj := range ss.ShardSubjectIDs(i) {
		subjectTriples(subj, ss.shards[i].spo[subj], fn)
	}
}

// ShardSubjectIDs returns shard i's distinct subjects in ascending order —
// the pagination index for cursor-based shard scans (a remote scan resumes
// after the last subject of the previous page).
func (ss *ShardedStore) ShardSubjectIDs(i int) []ID {
	sh := &ss.shards[i]
	subjects := make([]ID, len(sh.subjects))
	copy(subjects, sh.subjects)
	sort.Slice(subjects, func(a, b int) bool { return subjects[a] < subjects[b] })
	return subjects
}

// SubjectTriples iterates the triples of one subject in the canonical scan
// order (sorted predicate, insertion order of objects).
func (ss *ShardedStore) SubjectTriples(subj ID, fn func(Triple)) {
	pm, ok := ss.shards[ss.shardOf(subj)].spo[subj]
	if !ok {
		return
	}
	subjectTriples(subj, pm, fn)
}

// ShardSubjects returns shard i's subjects with (s, pred, obj), in the
// shard-local insertion order rdf.Subjects concatenates before sorting.
func (ss *ShardedStore) ShardSubjects(i int, pred PID, obj ID) []ID {
	return ss.shards[i].pos[pred][obj]
}
