package service

import (
	"container/list"
	"sync"
)

// cacheEntries is the result cache's capacity.
const cacheEntries = 64

// resultCache is a scenario-keyed LRU of up to cacheEntries completed job
// results. Keys are canonical config hashes (plus the process-grid layout),
// so an identical resubmission is served without re-solving. Cached *Result
// values are shared between jobs and must be treated as immutable.
type resultCache struct {
	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	res *Result
}

func newResultCache() *resultCache {
	return &resultCache{ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached result for key, marking it most recently used.
func (c *resultCache) get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// add stores a result, evicting the least recently used entry when full.
func (c *resultCache) add(key string, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > cacheEntries {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*cacheEntry).key)
	}
}

// len reports the number of cached entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
