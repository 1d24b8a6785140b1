package core

import "container/list"

// MaxEndedSessions bounds how many ended instances a Manager remembers for
// resumption accounting. A long-running daemon serves an unbounded number of
// distinct instances; only the most recent ones can plausibly reconnect, so
// older ones are forgotten and a re-registration after them counts as a new
// session rather than a reconnect.
const MaxEndedSessions = 4096

// endedSet is the insertion-ordered set of the most recently ended
// instances, capped at MaxEndedSessions (oldest evicted first). The zero
// value is ready to use.
type endedSet struct {
	order *list.List // of string, oldest first
	elems map[string]*list.Element
}

func (e *endedSet) has(instance string) bool {
	_, ok := e.elems[instance]
	return ok
}

// add records instance as the most recently ended one, evicting the oldest
// entry past the cap.
func (e *endedSet) add(instance string) {
	if e.elems == nil {
		e.order = list.New()
		e.elems = make(map[string]*list.Element)
	}
	if el, ok := e.elems[instance]; ok {
		e.order.MoveToBack(el)
		return
	}
	e.elems[instance] = e.order.PushBack(instance)
	if e.order.Len() > MaxEndedSessions {
		oldest := e.order.Front()
		e.order.Remove(oldest)
		delete(e.elems, oldest.Value.(string))
	}
}

func (e *endedSet) remove(instance string) {
	if el, ok := e.elems[instance]; ok {
		e.order.Remove(el)
		delete(e.elems, instance)
	}
}
