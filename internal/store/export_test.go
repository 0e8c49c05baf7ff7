package store

// IndexMinNodes exposes the member-index size constant to the external
// tests.
const IndexMinNodes = indexMinNodes
