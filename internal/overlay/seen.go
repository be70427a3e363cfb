package overlay

// seenSet is a bounded duplicate-suppression set over publication ids
// (origin + sequence). Insertion past capacity evicts the oldest entry
// FIFO — old ids ceasing to be suppressed is safe because TTL bounds
// how long a publication can keep circulating. Callers hold the node
// lock.
type seenSet struct {
	m    map[pubID]struct{}
	ring []pubID
	next int
}

// pubID names a publication: its origin and the sequence number the
// origin gave it.
type pubID struct {
	origin string
	seq    uint64
}

func newSeenSet(capacity int) *seenSet {
	return &seenSet{
		m:    make(map[pubID]struct{}, capacity),
		ring: make([]pubID, 0, capacity),
	}
}

func (s *seenSet) has(key pubID) bool {
	_, ok := s.m[key]
	return ok
}

func (s *seenSet) add(key pubID) {
	if _, ok := s.m[key]; ok {
		return
	}
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, key)
	} else {
		delete(s.m, s.ring[s.next])
		s.ring[s.next] = key
		s.next = (s.next + 1) % len(s.ring)
	}
	s.m[key] = struct{}{}
}

// remove un-marks a key — the backpressure path: a publication refused
// under load must not suppress the upstream peer's retry as a
// duplicate. The ring slot is blanked too (not just the map entry):
// leaving it would let a later re-add put the key in the ring twice,
// and the first slot's eviction would then delete the map entry while
// the key is still recent, silently re-admitting true duplicates.
// Removals are rare (sheds only), so the linear slot scan is fine.
func (s *seenSet) remove(key pubID) {
	if _, ok := s.m[key]; !ok {
		return
	}
	delete(s.m, key)
	for i, k := range s.ring {
		if k == key {
			s.ring[i] = pubID{} // evicting it later is a harmless map no-op
			break
		}
	}
}
