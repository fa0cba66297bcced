package cluster

import (
	"encoding/json"
	"reflect"
	"testing"

	"epfis/internal/catalog"
)

// FuzzDigestDoc holds the digest document every pull decodes from peer
// bytes, and the stamp text inside it. Every input is rejected or
// round-trips: an accepted digest, encoded and decoded again, reports the
// same node, epoch and versions; an accepted stamp renders to text that
// parses back to it. No accepted epoch or stamp reaches the peer bound.
// Nothing panics.
func FuzzDigestDoc(f *testing.F) {
	store := catalog.NewStore()
	if _, err := store.PutStamped(testEntry("t", "c0", 500), Stamp{Epoch: 3, Origin: "node-a"}); err != nil {
		f.Fatal(err)
	}
	if _, err := store.Put(testEntry("t", "c1", 600)); err != nil {
		f.Fatal(err)
	}
	if _, _, err := store.Merge(map[string]catalog.Incoming{"t.c2": {Version: catalog.Version{Stamp: Stamp{Epoch: 5, Origin: "x/y"}, Tombstone: true}}}); err != nil {
		f.Fatal(err)
	}
	n, err := NewNode(Config{SelfID: "a", SelfURL: "http://a", Store: store})
	if err != nil {
		f.Fatal(err)
	}
	doc, err := n.digest()
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(doc)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"entries":{"t.c":{"crc":1,"stamp":"18446744073709551615/"}}}`))
	f.Add([]byte(`7/node-a`))
	f.Add([]byte(`/`))
	f.Add([]byte(`{"node":"z","epoch":9223372036854775808,"entries":{}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Stamp
		if s.UnmarshalText(data) == nil {
			if s.Epoch >= catalog.EpochBound {
				t.Fatalf("stamp %q parsed to epoch %d, at or above the peer bound", data, s.Epoch)
			}
			text, err := s.MarshalText()
			if err != nil {
				t.Fatal(err)
			}
			var back Stamp
			if err := back.UnmarshalText(text); err != nil || back != s {
				t.Fatalf("stamp %+v renders %q, which parses to %+v (%v)", s, text, back, err)
			}
		}

		d, err := decodeDigest(data)
		if err != nil {
			return
		}
		if d.Epoch >= catalog.EpochBound {
			t.Fatalf("accepted a digest at epoch %d, at or above the peer bound", d.Epoch)
		}
		for k, v := range d.versions() {
			if v.Stamp.Epoch >= catalog.EpochBound {
				t.Fatalf("accepted a digest stamping %s %v, at or above the peer bound", k, v.Stamp)
			}
		}
		enc, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("accepted digest does not encode: %v", err)
		}
		var back digestDoc
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-encoded digest rejected: %v", err)
		}
		if back.Node != d.Node || back.Epoch != d.Epoch || !reflect.DeepEqual(back.versions(), d.versions()) {
			t.Fatalf("digest round trip changed it: %+v, want %+v", back, d)
		}
	})
}
