#!/bin/sh
mkdir -p results
echo 42 > results/answer.txt
