package shardrpc

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// Placement maps shards onto servers by rendezvous (highest-random-weight)
// hashing: for each shard, every server is ranked by a hash of
// (server, shard), and the top R servers are its replicas in preference
// order. Rendezvous hashing gives the two properties the pool needs with
// no coordination state: every client with the same server list computes
// the same placement, and adding or removing one server only remaps the
// shards that server ranked highest for.
type Placement struct {
	servers   []string
	numShards int
	replicas  int

	// prefs[shard] is the full server ranking for that shard; the first
	// replicas entries are its replica set in preference order.
	prefs [][]string
}

// ErrServerList is wrapped by NewPlacement's error for a server list that
// is empty or names an address empty or twice: a repeated address would
// make two replicas of a shard one host, and hedge back to the same server.
var ErrServerList = errors.New("shardrpc: bad server list")

// NewPlacement builds the placement for numShards shards over servers with
// R-way replication. R is clamped to [1, len(servers)].
func NewPlacement(servers []string, numShards, replicas int) (*Placement, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("%w: placement needs at least one server", ErrServerList)
	}
	if sorted := slices.Sorted(slices.Values(servers)); sorted[0] == "" || len(slices.Compact(sorted)) < len(servers) {
		return nil, fmt.Errorf("%w: %q names an address empty or twice", ErrServerList, servers)
	}
	if numShards <= 0 {
		return nil, fmt.Errorf("shardrpc: placement needs a positive shard count, got %d", numShards)
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(servers) {
		replicas = len(servers)
	}
	p := &Placement{
		servers:   append([]string(nil), servers...),
		numShards: numShards,
		replicas:  replicas,
		prefs:     make([][]string, numShards),
	}
	for shard := 0; shard < numShards; shard++ {
		type ranked struct {
			addr string
			w    uint64
		}
		rs := make([]ranked, len(p.servers))
		for i, addr := range p.servers {
			rs[i] = ranked{addr: addr, w: rendezvousWeight(addr, shard)}
		}
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].w != rs[j].w {
				return rs[i].w > rs[j].w
			}
			return rs[i].addr < rs[j].addr // total order even on hash ties
		})
		pref := make([]string, len(rs))
		for i, r := range rs {
			pref[i] = r.addr
		}
		p.prefs[shard] = pref
	}
	return p, nil
}

// rendezvousWeight hashes one (server, shard) pair.
func rendezvousWeight(addr string, shard int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	h.Write([]byte{'#', byte(shard), byte(shard >> 8), byte(shard >> 16), byte(shard >> 24)})
	return h.Sum64()
}

// NumShards returns the shard count the placement was built for.
func (p *Placement) NumShards() int { return p.numShards }

// Replicas returns shard's replica servers in preference order. The
// returned slice is owned by the placement; don't mutate it.
func (p *Placement) Replicas(shard int) []string {
	return p.prefs[shard][:p.replicas]
}

// Owned returns the shards for which addr is one of the replicas — the
// shard set a server at addr should serve under this placement.
func (p *Placement) Owned(addr string) []int {
	var out []int
	for shard := 0; shard < p.numShards; shard++ {
		for _, a := range p.Replicas(shard) {
			if a == addr {
				out = append(out, shard)
				break
			}
		}
	}
	return out
}
