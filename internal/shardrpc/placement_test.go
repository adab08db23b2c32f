package shardrpc

import (
	"errors"
	"testing"
)

// TestPlacementRefusesBadServerLists: an empty list, an empty address and a
// repeated address are refused with ErrServerList, so -shard-replicas 2 can
// never mean one host twice; distinct addresses place every shard on
// distinct replicas.
func TestPlacementRefusesBadServerLists(t *testing.T) {
	for _, servers := range [][]string{
		nil,
		{"a:1", "a:1"},
		{"a:1", "", "b:1"},
		{""},
	} {
		if pl, err := NewPlacement(servers, 4, 2); !errors.Is(err, ErrServerList) {
			t.Errorf("NewPlacement(%q) = (%v, %v), want ErrServerList", servers, pl, err)
		}
	}
	pl, err := NewPlacement([]string{"a:1", "b:1", "c:1"}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < pl.NumShards(); shard++ {
		if r := pl.Replicas(shard); len(r) != 2 || r[0] == r[1] {
			t.Errorf("shard %d replicas %q, want two distinct servers", shard, r)
		}
	}
}
