package homo

// ReferenceForEachSeeded exports the reference executor to the external
// differential test package.
var ReferenceForEachSeeded = referenceForEachSeeded
