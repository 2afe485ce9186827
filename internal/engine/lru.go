package engine

import (
	"container/list"
	"sync"
)

// LRU is a mutex-guarded least-recently-used map bounded by the summed
// weight of its values rather than their number — the one cache
// structure of the tree: the executor's result cache holds every result
// at weight 1, as the soi.Engine's matcher memo does every radius, and its
// describe-context memo weighs a context by the photos it holds. Stored
// values are shared with every reader and must be treated as immutable.
type LRU[K comparable, V any] struct {
	mu     sync.Mutex
	budget int64
	weight int64
	order  *list.List // front = most recently used; values are *lruEntry[K, V]
	items  map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key    K
	val    V
	weight int64
}

// NewLRU returns an empty cache that keeps at most budget summed weight.
func NewLRU[K comparable, V any](budget int64) *LRU[K, V] {
	return &LRU[K, V]{budget: budget, order: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value stored under key and marks it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Put stores val under key at the given weight, replacing a value already
// there, and evicts from the least recently used end until the budget
// holds again. A value heavier than the whole budget is not kept. It
// returns how many other entries were evicted and by how much the held
// weight changed, so a caller can mirror both into counters without
// reading the cache again.
func (c *LRU[K, V]) Put(key K, val V, weight int64) (evicted int, delta int64) {
	if weight > c.budget {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.weight
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry[K, V])
		c.weight += weight - e.weight
		e.val, e.weight = val, weight
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val, weight: weight})
		c.weight += weight
	}
	for c.weight > c.budget {
		oldest := c.order.Back()
		e := c.order.Remove(oldest).(*lruEntry[K, V])
		delete(c.items, e.key)
		c.weight -= e.weight
		evicted++
	}
	return evicted, c.weight - before
}

// Len returns the number of entries held.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Weight returns the summed weight of the entries held.
func (c *LRU[K, V]) Weight() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.weight
}
