package sqlparse

// Names the external tests (package sqlparse_test) use.
const MaxDepth = maxDepth

var TreeHeight = treeHeight
